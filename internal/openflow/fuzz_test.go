package openflow

import (
	"bytes"
	"io"
	"math/rand"
	"testing"
)

// FuzzReadMessage throws arbitrary bytes at the control channel's framing
// and, for whatever frames, at the body decoder its type selects. The seeds
// are the round-trip cases of property_test.go put on the wire. Nothing may
// panic; a message that reads must survive write -> read unchanged; and a body
// that parses must be stable: its re-encoding parses again, to the same bytes.
func FuzzReadMessage(f *testing.F) {
	wire := func(typ msgType, body []byte) {
		var buf bytes.Buffer
		if err := writeMessage(&buf, message{Type: typ, Xid: 7, Body: body}); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	r := rand.New(rand.NewSource(42))
	for i := 0; i < 10; i++ {
		body, err := encodeFlowMod(flowMod{
			Command: uint8(r.Intn(2) * 3), Priority: uint16(r.Intn(65536)),
			Cookie: r.Uint64(), Match: randomMatch(r), Actions: randomActions(r),
		})
		if err != nil {
			f.Fatal(err)
		}
		wire(typeFlowMod, body)
		wire(typeFlowMod, body[:len(body)/2])
	}
	wire(typeHello, nil)
	wire(typeFlowStatsReply, encodeFlowStatsReply([]FlowStat{{Priority: 10, Cookie: 9, Packets: 5, Bytes: 500}, {}}))
	wire(typeError, encodeError(errCodeFlowMod, "bad flow"))
	// The largest message the length field can carry; one byte more used
	// to wrap the field to 0 and must be refused at write time.
	wire(typeFlowMod, make([]byte, maxMessageLen-headerLen))
	if err := writeMessage(io.Discard, message{Type: typeFlowMod, Body: make([]byte, maxMessageLen-headerLen+1)}); err == nil {
		f.Fatal("a 65 536-byte message was written")
	}
	f.Add([]byte{})
	f.Add([]byte{version, byte(typeFlowMod), 0, 4, 0, 0, 0, 1}) // length below the header
	f.Add([]byte{1, byte(typeHello), 0, 8, 0, 0, 0, 1})         // wrong version
	f.Add([]byte{version, byte(typeFlowMod), 0, 200, 0, 0})     // truncated header and body

	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := readMessage(bytes.NewReader(data))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := writeMessage(&buf, m); err != nil {
			t.Fatalf("read message does not write: %v", err)
		}
		again, err := readMessage(&buf)
		if err != nil || again.Type != m.Type || again.Xid != m.Xid || !bytes.Equal(again.Body, m.Body) {
			t.Fatalf("framing round trip: %+v then %+v (%v)", m, again, err)
		}
		// recode parses a body and re-encodes what it understood.
		var recode func([]byte) ([]byte, error)
		switch m.Type {
		case typeFlowMod:
			recode = func(b []byte) ([]byte, error) {
				v, err := parseFlowMod(b)
				if err != nil {
					return nil, err
				}
				return encodeFlowMod(v)
			}
		case typeFlowStatsReply:
			recode = func(b []byte) ([]byte, error) {
				v, err := parseFlowStatsReply(b)
				return encodeFlowStatsReply(v), err
			}
		case typeError:
			recode = func(b []byte) ([]byte, error) {
				code, detail, err := parseError(b)
				return encodeError(code, detail), err
			}
		default:
			return
		}
		once, err := recode(m.Body)
		if err != nil {
			return
		}
		twice, err := recode(once)
		if err != nil {
			t.Fatalf("%v body re-encoded to bytes that fail to parse: %v\n%x", m.Type, err, once)
		}
		if !bytes.Equal(once, twice) {
			t.Fatalf("%v body encoding is not stable:\n first %x\nsecond %x", m.Type, once, twice)
		}
	})
}
