package rest

import (
	"encoding/binary"
	"fmt"
	"io"
	"sync"
	"time"

	"repro/internal/netdev"
)

// Captures are written in the classic libpcap format
// (https://wiki.wireshark.org/Development/LibpcapFileFormat), so traffic
// crossing the simulated dataplane can be opened in Wireshark or tcpdump:
// the microsecond-resolution variant, Ethernet link type.
const (
	pcapMagic        = 0xa1b2c3d4 // little-endian, microsecond timestamps
	pcapLinkEthernet = 1
	pcapSnapLen      = 65535
	pcapHeaderLen    = 24
	pcapRecordLen    = 16
)

// Capture streams the traffic crossing port to w in pcap format, the global
// header first, so even an empty capture is a valid file. The returned stop
// detaches the capture; a port holds one capture at a time.
func Capture(port *netdev.Port, w io.Writer) (stop func(), err error) {
	pw, err := newPcapWriter(w)
	if err != nil {
		return nil, err
	}
	port.SetTap(func(_ netdev.TapDir, f netdev.Frame) {
		_ = pw.writePacket(time.Now(), f.Data)
	})
	return func() {
		port.SetTap(nil)
		// In-flight taps may still hold the writer: gate them off before
		// the caller finalizes w.
		pw.close()
	}, nil
}

// pcapWriter emits a pcap stream. It is safe for concurrent use (taps fire
// from multiple dataplane goroutines).
type pcapWriter struct {
	mu     sync.Mutex
	w      io.Writer
	closed bool
}

// newPcapWriter writes the global header to w and returns the writer of
// its records.
func newPcapWriter(w io.Writer) (*pcapWriter, error) {
	var hdr [pcapHeaderLen]byte
	binary.LittleEndian.PutUint32(hdr[0:4], pcapMagic)
	binary.LittleEndian.PutUint16(hdr[4:6], 2) // version major
	binary.LittleEndian.PutUint16(hdr[6:8], 4) // version minor
	// thiszone(4) + sigfigs(4) stay zero.
	binary.LittleEndian.PutUint32(hdr[16:20], pcapSnapLen)
	binary.LittleEndian.PutUint32(hdr[20:24], pcapLinkEthernet)
	if _, err := w.Write(hdr[:]); err != nil {
		return nil, err
	}
	return &pcapWriter{w: w}, nil
}

// close stops the writer: later writePacket calls become no-ops.
func (pw *pcapWriter) close() {
	pw.mu.Lock()
	defer pw.mu.Unlock()
	pw.closed = true
}

// writePacket appends one captured frame with the given timestamp.
func (pw *pcapWriter) writePacket(ts time.Time, data []byte) error {
	pw.mu.Lock()
	defer pw.mu.Unlock()
	if pw.closed {
		return nil
	}
	capLen := min(len(data), pcapSnapLen)
	var rec [pcapRecordLen]byte
	binary.LittleEndian.PutUint32(rec[0:4], uint32(ts.Unix()))
	binary.LittleEndian.PutUint32(rec[4:8], uint32(ts.Nanosecond()/1000))
	binary.LittleEndian.PutUint32(rec[8:12], uint32(capLen))
	binary.LittleEndian.PutUint32(rec[12:16], uint32(len(data)))
	if _, err := pw.w.Write(rec[:]); err != nil {
		return err
	}
	_, err := pw.w.Write(data[:capLen])
	return err
}

// PcapPacket is one record read back from a capture.
type PcapPacket struct {
	Timestamp time.Time
	// OrigLen is the original wire length; Data may be shorter if the
	// capture was snapped.
	OrigLen int
	Data    []byte
}

// PcapReader parses a pcap stream, the check that a capture holds what
// crossed the port.
type PcapReader struct {
	r        io.Reader
	readHdr  bool
	linkType uint32
}

// NewPcapReader wraps r; the global header is consumed on the first
// ReadPacket.
func NewPcapReader(r io.Reader) *PcapReader {
	return &PcapReader{r: r}
}

// ReadPacket returns the next record, or io.EOF at the end of the stream.
func (pr *PcapReader) ReadPacket() (PcapPacket, error) {
	if !pr.readHdr {
		var hdr [pcapHeaderLen]byte
		if _, err := io.ReadFull(pr.r, hdr[:]); err != nil {
			return PcapPacket{}, err
		}
		if magic := binary.LittleEndian.Uint32(hdr[0:4]); magic != pcapMagic {
			return PcapPacket{}, fmt.Errorf("pcap: bad magic %#x", magic)
		}
		pr.linkType = binary.LittleEndian.Uint32(hdr[20:24])
		pr.readHdr = true
	}
	var rec [pcapRecordLen]byte
	if _, err := io.ReadFull(pr.r, rec[:]); err != nil {
		if err == io.ErrUnexpectedEOF {
			return PcapPacket{}, fmt.Errorf("pcap: truncated record header")
		}
		return PcapPacket{}, err
	}
	sec := binary.LittleEndian.Uint32(rec[0:4])
	usec := binary.LittleEndian.Uint32(rec[4:8])
	capLen := binary.LittleEndian.Uint32(rec[8:12])
	origLen := binary.LittleEndian.Uint32(rec[12:16])
	if capLen > pcapSnapLen {
		return PcapPacket{}, fmt.Errorf("pcap: capture length %d exceeds snap length", capLen)
	}
	data := make([]byte, capLen)
	if _, err := io.ReadFull(pr.r, data); err != nil {
		return PcapPacket{}, fmt.Errorf("pcap: truncated record body")
	}
	return PcapPacket{
		Timestamp: time.Unix(int64(sec), int64(usec)*1000),
		OrigLen:   int(origLen),
		Data:      data,
	}, nil
}

// ReadAll drains the stream.
func (pr *PcapReader) ReadAll() ([]PcapPacket, error) {
	var out []PcapPacket
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
