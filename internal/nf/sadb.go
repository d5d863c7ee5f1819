package nf

import (
	"crypto/aes"
	"crypto/cipher"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"sync"

	"repro/internal/pkt"
)

// replayWindowSize is the anti-replay sliding window width (RFC 4303 §3.4.3
// requires at least 32; 64 is the common choice).
const replayWindowSize = 64

// replayWindow implements the RFC 4303 anti-replay check over 32-bit
// sequence numbers.
type replayWindow struct {
	highest uint32
	bitmap  uint64
}

// check reports whether seq is acceptable (new and inside the window) and
// records it if so.
func (w *replayWindow) check(seq uint32) bool {
	switch {
	case seq == 0:
		return false // seq 0 is never valid on the wire
	case w.highest == 0 || seq > w.highest:
		shift := uint64(seq - w.highest)
		if w.highest == 0 {
			shift = 0
		}
		if shift >= replayWindowSize {
			w.bitmap = 0
		} else {
			w.bitmap <<= shift
		}
		w.bitmap |= 1
		w.highest = seq
		return true
	case w.highest-seq >= replayWindowSize:
		return false // too old
	default:
		bit := uint64(1) << (w.highest - seq)
		if w.bitmap&bit != 0 {
			return false // replayed
		}
		w.bitmap |= bit
		return true
	}
}

// SA is one IPsec security association: an SPI, a direction-agnostic
// AES-GCM key (RFC 4106: 16-byte AES key + 4-byte salt), tunnel endpoints
// and per-direction state.
type SA struct {
	SPI    uint32
	Local  pkt.Addr // outer source when encapsulating
	Remote pkt.Addr // outer destination when encapsulating

	aead cipher.AEAD
	salt [4]byte
	// keyMaterial is retained so the SA can be exported to a sibling
	// replica during scale-out state migration.
	keyMaterial []byte

	mu     sync.Mutex
	seq    uint32 // last sequence number sent
	replay replayWindow
}

// keyLen is AES-128 key plus RFC 4106 salt.
const keyLen = 16 + 4

// NewSA builds a security association. keyMaterial must be 20 bytes: a
// 16-byte AES-128 key followed by the 4-byte GCM salt.
func NewSA(spi uint32, local, remote pkt.Addr, keyMaterial []byte) (*SA, error) {
	if len(keyMaterial) != keyLen {
		return nil, fmt.Errorf("nf: SA key material must be %d bytes, got %d", keyLen, len(keyMaterial))
	}
	if spi == 0 {
		return nil, fmt.Errorf("nf: SPI 0 is reserved")
	}
	block, err := aes.NewCipher(keyMaterial[:16])
	if err != nil {
		return nil, err
	}
	aead, err := cipher.NewGCM(block)
	if err != nil {
		return nil, err
	}
	sa := &SA{SPI: spi, Local: local, Remote: remote, aead: aead}
	copy(sa.salt[:], keyMaterial[16:])
	sa.keyMaterial = append([]byte(nil), keyMaterial...)
	return sa, nil
}

// KeyMaterial returns the SA's raw key material (for state export).
func (sa *SA) KeyMaterial() []byte { return sa.keyMaterial }

// exportState snapshots the mutable per-direction state.
func (sa *SA) exportState() (seq, replayHighest uint32, replayBitmap uint64) {
	sa.mu.Lock()
	defer sa.mu.Unlock()
	return sa.seq, sa.replay.highest, sa.replay.bitmap
}

// restoreState installs state exported from a sibling replica's SA. The
// counters only move forward: a catch-up import never rewinds the send
// sequence (which would reuse GCM nonces) or the anti-replay window.
func (sa *SA) restoreState(seq, replayHighest uint32, replayBitmap uint64) {
	sa.mu.Lock()
	defer sa.mu.Unlock()
	if seq > sa.seq {
		sa.seq = seq
	}
	if replayHighest > sa.replay.highest {
		sa.replay.highest = replayHighest
		sa.replay.bitmap = replayBitmap
	} else if replayHighest == sa.replay.highest {
		sa.replay.bitmap |= replayBitmap
	}
}

// ParseSAKey decodes hex key material ("0011..ff", 40 hex chars).
func ParseSAKey(s string) ([]byte, error) {
	key, err := hex.DecodeString(s)
	if err != nil {
		return nil, fmt.Errorf("nf: bad SA key hex: %w", err)
	}
	if len(key) != keyLen {
		return nil, fmt.Errorf("nf: SA key must be %d bytes, got %d", keyLen, len(key))
	}
	return key, nil
}

// nextSeq allocates the next outbound sequence number.
func (sa *SA) nextSeq() uint32 {
	sa.mu.Lock()
	defer sa.mu.Unlock()
	sa.seq++
	return sa.seq
}

// acceptSeq runs the anti-replay check for an inbound sequence number.
func (sa *SA) acceptSeq(seq uint32) bool {
	sa.mu.Lock()
	defer sa.mu.Unlock()
	return sa.replay.check(seq)
}

// espOverhead is the per-packet byte overhead of our ESP encapsulation:
// outer IPv4 (20) + SPI/seq (8) + explicit IV (8) + GCM tag (16), plus up to
// 4 bytes of trailer alignment + 2 trailer bytes.
const espOverhead = pkt.IPv4HeaderLen + pkt.ESPHeaderLen + espIVLen + 16 + 6

// espIVLen is the length of the explicit IV (RFC 4106), and nonceLen the
// length of the GCM nonce built from the SA's salt and that IV.
const (
	espIVLen = 8
	nonceLen = 4 + espIVLen
)

// Encapsulate performs RFC 4303 tunnel-mode ESP encapsulation of an inner
// IPv4 packet, returning the outer IPv4 packet (starting at the outer IPv4
// header). Layout: outer IPv4 | SPI | seq | IV(8) | ciphertext+tag, where
// the plaintext is inner-IP || padding || padLen || nextHeader(4 = IPIP).
// The packet is backed by the frame-buffer pool and belongs to the caller.
func (sa *SA) Encapsulate(innerIP []byte) ([]byte, error) {
	return sa.seal(0, innerIP), nil
}

// Decapsulate reverses Encapsulate: it takes an outer IPv4 packet carrying
// ESP, authenticates and decrypts it, runs the anti-replay check, and
// returns the inner IPv4 packet, backed by the frame-buffer pool.
func (sa *SA) Decapsulate(outerIP []byte) ([]byte, error) {
	return sa.open(0, outerIP)
}

// seal encapsulates innerIP under the SA's next sequence number into one
// pooled frame: headroom bytes the caller fills with a link header, then
// outer IPv4 | SPI | seq | IV | inner || RFC 4303 trailer, which is sealed
// in place and followed by the ICV.
func (sa *SA) seal(headroom int, innerIP []byte) []byte {
	seq := sa.nextSeq()
	// Trailer: pad the (inner + 2 trailer bytes) to a 4-byte boundary.
	padLen := (4 - (len(innerIP)+2)%4) % 4
	plainLen := len(innerIP) + padLen + 2
	espOff := headroom + pkt.IPv4HeaderLen
	ivOff := espOff + pkt.ESPHeaderLen
	ctOff := ivOff + espIVLen
	size := ctOff + plainLen + sa.aead.Overhead()
	out := pkt.GetBuffer(size + nonceLen)[:size]

	outer := pkt.IPv4{
		Length:   uint16(len(out) - headroom),
		TTL:      64,
		Protocol: pkt.IPProtocolESP,
		SrcIP:    sa.Local,
		DstIP:    sa.Remote,
	}
	outer.PutHeader(out[headroom:])
	esp := pkt.ESP{SPI: sa.SPI, Seq: seq}
	esp.PutHeader(out[espOff:])
	// The explicit IV is the sequence number, which is unique per SA.
	binary.BigEndian.PutUint64(out[ivOff:ctOff], uint64(seq))

	plain := out[ctOff : ctOff+plainLen]
	n := copy(plain, innerIP)
	for i := 0; i < padLen; i++ {
		plain[n+i] = byte(i + 1) // RFC 4303 monotonic pad
	}
	plain[plainLen-2] = byte(padLen)
	plain[plainLen-1] = 4 // next header: IP-in-IP

	// AAD is the SPI || sequence number already on the wire.
	sa.aead.Seal(plain[:0], sa.nonce(out, out[ivOff:ctOff]), plain, out[espOff:ivOff])
	return out
}

// open authenticates and decrypts the ESP packet outerIP into one pooled
// frame: headroom bytes the caller fills with a link header, then the inner
// packet. Authentication comes first, then the anti-replay check, then the
// trailer's pad length and next header; on any failure the frame goes back
// to the pool.
func (sa *SA) open(headroom int, outerIP []byte) ([]byte, error) {
	var ip pkt.IPv4
	if err := ip.DecodeFromBytes(outerIP); err != nil {
		return nil, fmt.Errorf("nf: esp outer: %w", err)
	}
	if ip.Protocol != pkt.IPProtocolESP {
		return nil, fmt.Errorf("nf: not an ESP packet (proto %v)", ip.Protocol)
	}
	var esp pkt.ESP
	if err := esp.DecodeFromBytes(ip.LayerPayload()); err != nil {
		return nil, err
	}
	if esp.SPI != sa.SPI {
		return nil, fmt.Errorf("nf: SPI mismatch: packet %#x, SA %#x", esp.SPI, sa.SPI)
	}
	body := esp.LayerPayload()
	if len(body) < espIVLen+sa.aead.Overhead() {
		return nil, fmt.Errorf("nf: esp payload too short: %d", len(body))
	}
	ct := body[espIVLen:]
	size := headroom + len(ct) - sa.aead.Overhead()
	out := pkt.GetBuffer(size + nonceLen)[:size]
	plain, err := sa.aead.Open(out[headroom:headroom], sa.nonce(out, body[:espIVLen]), ct, esp.LayerContents())
	if err != nil {
		pkt.PutBuffer(out)
		return nil, fmt.Errorf("nf: esp authentication failed: %w", err)
	}
	// Authentication passed; now the sequence number is trustworthy.
	if !sa.acceptSeq(esp.Seq) {
		pkt.PutBuffer(out)
		return nil, fmt.Errorf("nf: esp replay detected (seq %d)", esp.Seq)
	}
	if len(plain) < 2 {
		pkt.PutBuffer(out)
		return nil, fmt.Errorf("nf: esp plaintext too short")
	}
	padLen := int(plain[len(plain)-2])
	if next := plain[len(plain)-1]; next != 4 {
		pkt.PutBuffer(out)
		return nil, fmt.Errorf("nf: esp next header %d, want 4 (IPIP)", next)
	}
	if padLen+2 > len(plain) {
		pkt.PutBuffer(out)
		return nil, fmt.Errorf("nf: esp pad length %d exceeds plaintext", padLen)
	}
	return out[:headroom+len(plain)-2-padLen], nil
}

// nonce builds the RFC 4106 nonce, salt || explicit IV, in the nonceLen
// bytes that seal and open reserve past the end of their frame: the AEAD is
// an interface, so a nonce on the stack would escape to the heap on every
// packet. Seal and Open write exactly up to the frame's length (ciphertext
// and ICV, or plaintext), never into the nonce they read; the frame keeps
// the nonce bytes in its spare capacity after it is handed on.
func (sa *SA) nonce(frame, iv []byte) []byte {
	n := frame[len(frame) : len(frame)+nonceLen]
	copy(n, sa.salt[:])
	copy(n[len(sa.salt):], iv)
	return n
}

// SADB is the security association database of one IPsec gateway.
type SADB struct {
	mu    sync.RWMutex
	bySPI map[uint32]*SA
	// byPeer indexes the outbound SA per remote tunnel endpoint.
	byPeer map[pkt.Addr]*SA
}

// NewSADB returns an empty database.
func NewSADB() *SADB {
	return &SADB{bySPI: make(map[uint32]*SA), byPeer: make(map[pkt.Addr]*SA)}
}

// Add installs an SA.
func (db *SADB) Add(sa *SA) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if _, dup := db.bySPI[sa.SPI]; dup {
		return fmt.Errorf("nf: SPI %#x already installed", sa.SPI)
	}
	db.bySPI[sa.SPI] = sa
	db.byPeer[sa.Remote] = sa
	return nil
}

// BySPI finds the SA for an inbound SPI.
func (db *SADB) BySPI(spi uint32) (*SA, bool) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	sa, ok := db.bySPI[spi]
	return sa, ok
}

// ByPeer finds the outbound SA toward a remote endpoint.
func (db *SADB) ByPeer(remote pkt.Addr) (*SA, bool) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	sa, ok := db.byPeer[remote]
	return sa, ok
}

// Put installs an SA, replacing any existing one with the same SPI (the
// idempotent form Add used by state import).
func (db *SADB) Put(sa *SA) {
	db.mu.Lock()
	defer db.mu.Unlock()
	db.bySPI[sa.SPI] = sa
	db.byPeer[sa.Remote] = sa
}

// Remove deletes an SA by SPI, dropping the peer index entry when it still
// points at the removed SA (a replacement SA toward the same peer keeps its
// own entry).
func (db *SADB) Remove(spi uint32) {
	db.mu.Lock()
	defer db.mu.Unlock()
	sa, ok := db.bySPI[spi]
	if !ok {
		return
	}
	delete(db.bySPI, spi)
	if cur, ok := db.byPeer[sa.Remote]; ok && cur == sa {
		delete(db.byPeer, sa.Remote)
	}
}

// All returns a snapshot of every installed SA.
func (db *SADB) All() []*SA {
	db.mu.RLock()
	defer db.mu.RUnlock()
	out := make([]*SA, 0, len(db.bySPI))
	for _, sa := range db.bySPI {
		out = append(out, sa)
	}
	return out
}

// Len returns the number of installed SAs.
func (db *SADB) Len() int {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return len(db.bySPI)
}
