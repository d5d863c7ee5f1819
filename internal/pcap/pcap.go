// Package pcap reads and writes the classic libpcap capture format
// (https://wiki.wireshark.org/Development/LibpcapFileFormat), so traffic
// crossing the simulated dataplane can be saved and opened in Wireshark or
// tcpdump. Only the standard microsecond-resolution format with Ethernet
// link type is produced.
package pcap

import (
	"encoding/binary"
	"fmt"
	"io"
	"sync"
	"time"
)

// magicMicroseconds is the little-endian magic of the classic format.
const magicMicroseconds = 0xa1b2c3d4

// LinkTypeEthernet is the only link type used here.
const LinkTypeEthernet = 1

// DefaultSnapLen is the capture length written to the global header.
const DefaultSnapLen = 65535

// globalHeaderLen and recordHeaderLen are the fixed header sizes.
const (
	globalHeaderLen = 24
	recordHeaderLen = 16
)

// Writer emits a pcap stream. It is safe for concurrent use (taps fire from
// multiple dataplane goroutines).
type Writer struct {
	mu      sync.Mutex
	w       io.Writer
	wroteHd bool
	closed  bool
	packets uint64
}

// NewWriter wraps w; the global header is written lazily with the first
// packet (or explicitly with WriteHeader).
func NewWriter(w io.Writer) *Writer {
	return &Writer{w: w}
}

// WriteHeader emits the global header immediately, making even an empty
// capture a valid pcap file. It is idempotent.
func (pw *Writer) WriteHeader() error {
	pw.mu.Lock()
	defer pw.mu.Unlock()
	return pw.writeHeaderLocked()
}

func (pw *Writer) writeHeaderLocked() error {
	if pw.wroteHd {
		return nil
	}
	var hdr [globalHeaderLen]byte
	binary.LittleEndian.PutUint32(hdr[0:4], magicMicroseconds)
	binary.LittleEndian.PutUint16(hdr[4:6], 2) // version major
	binary.LittleEndian.PutUint16(hdr[6:8], 4) // version minor
	// thiszone(4) + sigfigs(4) stay zero.
	binary.LittleEndian.PutUint32(hdr[16:20], DefaultSnapLen)
	binary.LittleEndian.PutUint32(hdr[20:24], LinkTypeEthernet)
	if _, err := pw.w.Write(hdr[:]); err != nil {
		return err
	}
	pw.wroteHd = true
	return nil
}

// Close stops the writer: later WritePacket calls become no-ops. It lets a
// capture be detached while concurrent taps may still be in flight.
func (pw *Writer) Close() {
	pw.mu.Lock()
	defer pw.mu.Unlock()
	pw.closed = true
}

// WritePacket appends one captured frame with the given timestamp.
func (pw *Writer) WritePacket(ts time.Time, data []byte) error {
	pw.mu.Lock()
	defer pw.mu.Unlock()
	if pw.closed {
		return nil
	}
	if err := pw.writeHeaderLocked(); err != nil {
		return err
	}
	capLen := len(data)
	if capLen > DefaultSnapLen {
		capLen = DefaultSnapLen
	}
	var rec [recordHeaderLen]byte
	binary.LittleEndian.PutUint32(rec[0:4], uint32(ts.Unix()))
	binary.LittleEndian.PutUint32(rec[4:8], uint32(ts.Nanosecond()/1000))
	binary.LittleEndian.PutUint32(rec[8:12], uint32(capLen))
	binary.LittleEndian.PutUint32(rec[12:16], uint32(len(data)))
	if _, err := pw.w.Write(rec[:]); err != nil {
		return err
	}
	_, err := pw.w.Write(data[:capLen])
	if err == nil {
		pw.packets++
	}
	return err
}

// Packets returns the number of records written.
func (pw *Writer) Packets() uint64 {
	pw.mu.Lock()
	defer pw.mu.Unlock()
	return pw.packets
}

// Packet is one record read back from a capture.
type Packet struct {
	Timestamp time.Time
	// OrigLen is the original wire length; Data may be shorter if the
	// capture was snapped.
	OrigLen int
	Data    []byte
}

// Reader parses a pcap stream.
type Reader struct {
	r        io.Reader
	readHdr  bool
	linkType uint32
}

// NewReader wraps r; the global header is consumed on the first ReadPacket.
func NewReader(r io.Reader) *Reader {
	return &Reader{r: r}
}

// ReadPacket returns the next record, or io.EOF at the end of the stream.
func (pr *Reader) ReadPacket() (Packet, error) {
	if !pr.readHdr {
		var hdr [globalHeaderLen]byte
		if _, err := io.ReadFull(pr.r, hdr[:]); err != nil {
			return Packet{}, err
		}
		if binary.LittleEndian.Uint32(hdr[0:4]) != magicMicroseconds {
			return Packet{}, fmt.Errorf("pcap: bad magic %#x", binary.LittleEndian.Uint32(hdr[0:4]))
		}
		pr.linkType = binary.LittleEndian.Uint32(hdr[20:24])
		pr.readHdr = true
	}
	var rec [recordHeaderLen]byte
	if _, err := io.ReadFull(pr.r, rec[:]); err != nil {
		if err == io.ErrUnexpectedEOF {
			return Packet{}, fmt.Errorf("pcap: truncated record header")
		}
		return Packet{}, err
	}
	sec := binary.LittleEndian.Uint32(rec[0:4])
	usec := binary.LittleEndian.Uint32(rec[4:8])
	capLen := binary.LittleEndian.Uint32(rec[8:12])
	origLen := binary.LittleEndian.Uint32(rec[12:16])
	if capLen > DefaultSnapLen {
		return Packet{}, fmt.Errorf("pcap: capture length %d exceeds snap length", capLen)
	}
	data := make([]byte, capLen)
	if _, err := io.ReadFull(pr.r, data); err != nil {
		return Packet{}, fmt.Errorf("pcap: truncated record body")
	}
	return Packet{
		Timestamp: time.Unix(int64(sec), int64(usec)*1000),
		OrigLen:   int(origLen),
		Data:      data,
	}, nil
}

// ReadAll drains the stream.
func (pr *Reader) ReadAll() ([]Packet, error) {
	var out []Packet
	for {
		p, err := pr.ReadPacket()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return out, err
		}
		out = append(out, p)
	}
}
