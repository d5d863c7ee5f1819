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
	wire := func(typ MsgType, body []byte) {
		var buf bytes.Buffer
		if err := WriteMessage(&buf, Message{Type: typ, Xid: 7, Body: body}); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	r := rand.New(rand.NewSource(42))
	for i := 0; i < 8; i++ {
		body, err := EncodeFlowMod(FlowMod{
			Command: uint8(r.Intn(2) * 3), TableID: uint8(r.Intn(8)), Priority: uint16(r.Intn(65536)),
			Cookie: r.Uint64(), Match: randomMatch(r), Actions: randomActions(r),
		})
		if err != nil {
			f.Fatal(err)
		}
		wire(TypeFlowMod, body)
		wire(TypeFlowMod, body[:len(body)/2])
	}
	wire(TypeHello, nil)
	wire(TypeEchoRequest, []byte("ping"))
	wire(TypeFeaturesReply, EncodeFeaturesReply(FeaturesReply{DPID: 1, NTables: 8, Ports: []uint32{1, 2, 3}}))
	wire(TypePacketIn, EncodePacketIn(PacketIn{InPort: 3, TableID: 1, Reason: 1, Data: []byte{1, 2, 3}}))
	wire(TypePacketOut, EncodePacketOut(PacketOut{InPort: 1, OutPort: 2, Data: []byte{4, 5, 6}}))
	wire(TypeFlowStatsReply, EncodeFlowStatsReply([]FlowStat{{TableID: 1, Priority: 10, Cookie: 9, Packets: 5, Bytes: 500}, {}}))
	wire(TypeError, EncodeError(ErrCodeBadMatch, "bad match"))
	// The largest message the length field can carry; one byte more used
	// to wrap the field to 0 and must be refused at write time.
	wire(TypeEchoRequest, make([]byte, MaxMessageLen-HeaderLen))
	if err := WriteMessage(io.Discard, Message{Type: TypeEchoRequest, Body: make([]byte, MaxMessageLen-HeaderLen+1)}); err == nil {
		f.Fatal("a 65 536-byte message was written")
	}
	f.Add([]byte{})
	f.Add([]byte{Version, byte(TypeFlowMod), 0, 4, 0, 0, 0, 1}) // length below the header
	f.Add([]byte{1, byte(TypeHello), 0, 8, 0, 0, 0, 1})         // wrong version
	f.Add([]byte{Version, byte(TypeFlowMod), 0, 200, 0, 0})     // truncated header and body

	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := ReadMessage(bytes.NewReader(data))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := WriteMessage(&buf, m); err != nil {
			t.Fatalf("read message does not write: %v", err)
		}
		again, err := ReadMessage(&buf)
		if err != nil || again.Type != m.Type || again.Xid != m.Xid || !bytes.Equal(again.Body, m.Body) {
			t.Fatalf("framing round trip: %+v then %+v (%v)", m, again, err)
		}
		// recode parses a body and re-encodes what it understood.
		var recode func([]byte) ([]byte, error)
		switch m.Type {
		case TypeFeaturesReply:
			recode = func(b []byte) ([]byte, error) {
				v, err := ParseFeaturesReply(b)
				return EncodeFeaturesReply(v), err
			}
		case TypePacketIn:
			recode = func(b []byte) ([]byte, error) {
				v, err := ParsePacketIn(b)
				return EncodePacketIn(v), err
			}
		case TypePacketOut:
			recode = func(b []byte) ([]byte, error) {
				v, err := ParsePacketOut(b)
				return EncodePacketOut(v), err
			}
		case TypeFlowMod:
			recode = func(b []byte) ([]byte, error) {
				v, err := ParseFlowMod(b)
				if err != nil {
					return nil, err
				}
				return EncodeFlowMod(v)
			}
		case TypeFlowStatsReply:
			recode = func(b []byte) ([]byte, error) {
				v, err := ParseFlowStatsReply(b)
				return EncodeFlowStatsReply(v), err
			}
		case TypeError:
			recode = func(b []byte) ([]byte, error) {
				code, detail, err := ParseError(b)
				return EncodeError(code, detail), err
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
