package nf

import (
	"bytes"
	"encoding/binary"
	"strings"
	"testing"

	"repro/internal/pkt"
)

// sealRaw builds the ESP frame the left gateway of gatewayPair would send
// for plain — inner packet and RFC 4303 trailer, both as given — under a
// valid ICV. It lets a test put a malformed trailer behind authentication.
func sealRaw(sa *SA, seq uint32, plain []byte) []byte {
	const espOff = pkt.EthernetHeaderLen + pkt.IPv4HeaderLen
	const ctOff = espOff + pkt.ESPHeaderLen + espIVLen
	frame := make([]byte, ctOff+len(plain)+sa.aead.Overhead())
	eth := pkt.Ethernet{SrcMAC: macA, DstMAC: macB, EthernetType: pkt.EthernetTypeIPv4}
	eth.PutHeader(frame)
	ip := pkt.IPv4{Length: uint16(len(frame) - pkt.EthernetHeaderLen), TTL: 64, Protocol: pkt.IPProtocolESP, SrcIP: sa.Local, DstIP: sa.Remote}
	ip.PutHeader(frame[pkt.EthernetHeaderLen:])
	esp := pkt.ESP{SPI: sa.SPI, Seq: seq}
	esp.PutHeader(frame[espOff:])
	binary.BigEndian.PutUint64(frame[ctOff-espIVLen:ctOff], uint64(seq))
	nonce := append(append([]byte(nil), sa.salt[:]...), frame[ctOff-espIVLen:ctOff]...)
	sa.aead.Seal(frame[ctOff:ctOff], nonce, plain, frame[espOff:espOff+pkt.ESPHeaderLen])
	return frame
}

// FuzzIPsecDecap throws arbitrary bytes at the encrypted port of a fresh
// gateway. Nothing may panic, and nothing may come out that the peer did not
// seal: an emission is only allowed for a frame whose ESP packet is one of
// the seeds the peer sealed, and it must carry exactly that seed's inner
// packet. The seeds are sealed frames of several sizes, truncations of one,
// and authenticated frames with a bad pad length, a wrong next header and a
// flipped ICV bit.
func FuzzIPsecDecap(f *testing.F) {
	left, _ := gatewayPair(f)
	sa, _ := left.SADB().BySPI(0x1000)
	sealed := map[string][]byte{} // ESP packet -> inner packet
	espOf := func(frame []byte) []byte {
		var h headers
		h.decode(frame)
		return h.ip.LayerPayload()
	}
	for _, n := range []int{0, 1, 2, 3, 200, 1400} {
		frame := pkt.MustBuildFrame(pkt.FrameSpec{
			SrcMAC: macA, DstMAC: macB, SrcIP: ipA, DstIP: ipB,
			SrcPort: 40000, DstPort: 5001, PayloadLen: n, PayloadByte: byte(n),
		})
		res, err := left.Process(IPsecPortPlain, frame)
		if err != nil {
			f.Fatal(err)
		}
		out := res.Emissions[0].Frame
		sealed[string(espOf(out))] = frame[pkt.EthernetHeaderLen:]
		f.Add(out)
		if n == 200 {
			for _, cut := range []int{0, 10, pkt.EthernetHeaderLen + 10, pkt.EthernetHeaderLen + pkt.IPv4HeaderLen + 4, 80, len(out) - 1} {
				f.Add(out[:cut])
			}
			flipped := append([]byte(nil), out...)
			flipped[len(flipped)-1] ^= 0x01
			f.Add(flipped)
		}
	}
	inner := innerPacket(f, 6)                                             // 34 bytes, pad 0
	f.Add(sealRaw(sa, 100, append(append([]byte(nil), inner...), 200, 4))) // pad length past the plaintext
	f.Add(sealRaw(sa, 101, append(append([]byte(nil), inner...), 0, 17)))  // next header UDP, not IPIP
	f.Add(sealRaw(sa, 102, []byte{4}))                                     // no room for the trailer

	f.Fuzz(func(t *testing.T, frame []byte) {
		_, right := gatewayPair(t)
		res, err := right.Process(IPsecPortEncrypted, frame)
		if len(res.Emissions) == 0 {
			return
		}
		if err != nil || len(res.Emissions) != 1 {
			t.Fatalf("%d emissions with error %v", len(res.Emissions), err)
		}
		want, ok := sealed[string(espOf(frame))]
		if !ok {
			t.Fatalf("emitted a frame the peer never sealed: %x", frame)
		}
		if got := res.Emissions[0].Frame; !bytes.Equal(got[pkt.EthernetHeaderLen:], want) {
			t.Fatalf("emitted inner %x, sealed %x", got[pkt.EthernetHeaderLen:], want)
		}
	})
}

// TestESPChecksInOrder pins the order decapsulation checks in: the ICV
// first, then anti-replay, then the trailer. An authenticated frame with a
// malformed trailer is rejected, and its sequence number is spent.
func TestESPChecksInOrder(t *testing.T) {
	left, right := gatewayPair(t)
	sa, _ := left.SADB().BySPI(0x1000)
	inner := innerPacket(t, 6)
	for _, c := range []struct {
		frame []byte
		err   string
	}{
		{sealRaw(sa, 7, append(append([]byte(nil), inner...), 200, 4)), "pad length"},
		{sealRaw(sa, 8, append(append([]byte(nil), inner...), 0, 17)), "next header"},
		{sealRaw(sa, 9, []byte{4}), "too short"},
	} {
		res, err := right.Process(IPsecPortEncrypted, c.frame)
		if err == nil || !strings.Contains(err.Error(), c.err) || len(res.Emissions) != 0 {
			t.Fatalf("want a %q error and no emission, got %v and %d emissions", c.err, err, len(res.Emissions))
		}
		if _, err := right.Process(IPsecPortEncrypted, c.frame); err == nil || !strings.Contains(err.Error(), "replay") {
			t.Fatalf("resent frame: want a replay error, got %v", err)
		}
		tampered := append([]byte(nil), c.frame...)
		tampered[len(tampered)-1] ^= 1
		if _, err := right.Process(IPsecPortEncrypted, tampered); err == nil || !strings.Contains(err.Error(), "authentication") {
			t.Fatalf("tampered frame: want an authentication error, got %v", err)
		}
	}
}
