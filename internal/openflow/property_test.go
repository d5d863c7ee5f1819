package openflow

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/pkt"
	"repro/internal/vswitch"
)

// encodeFlowMod builds the body of a FLOW_MOD.
func encodeFlowMod(fm flowMod) ([]byte, error) {
	b, err := appendFlowMod(nil, 0, fm)
	if err != nil {
		return nil, err
	}
	return b[headerLen:], nil
}

// randomMatch builds a match with a random subset of fields set.
func randomMatch(r *rand.Rand) vswitch.Match {
	m := vswitch.MatchAll()
	if r.Intn(2) == 0 {
		m = m.WithInPort(uint32(r.Intn(1000) + 1))
	}
	if r.Intn(2) == 0 {
		m = m.WithEthType(pkt.EthernetTypeIPv4)
	}
	if r.Intn(2) == 0 {
		m = m.WithVLAN(uint16(r.Intn(4094) + 1))
	}
	if r.Intn(2) == 0 {
		m = m.WithIPProto(pkt.IPProtocol(r.Intn(255) + 1))
	}
	if r.Intn(2) == 0 {
		m = m.WithIPSrc(pkt.Addr{byte(r.Intn(256)), 0, 0, 0}, r.Intn(33))
	}
	if r.Intn(2) == 0 {
		m = m.WithIPDst(pkt.Addr{byte(r.Intn(256)), 1, 1, 1}, r.Intn(33))
	}
	if r.Intn(2) == 0 {
		m = m.WithL4Src(uint16(r.Intn(65535) + 1))
	}
	if r.Intn(2) == 0 {
		m = m.WithL4Dst(uint16(r.Intn(65535) + 1))
	}
	return m
}

// randomActions builds a random action list.
func randomActions(r *rand.Rand) []vswitch.Action {
	n := r.Intn(6)
	out := make([]vswitch.Action, 0, n)
	for i := 0; i < n; i++ {
		switch r.Intn(6) {
		case 5:
			var ports [vswitch.NumStateBuckets]uint32
			for b := range ports {
				ports[b] = uint32(r.Intn(100) + 1)
			}
			out = append(out, vswitch.SelectBucket(ports))
		case 0:
			out = append(out, vswitch.Output(uint32(r.Intn(100)+1)))
		case 1:
			out = append(out, vswitch.PushVLAN(uint16(r.Intn(4094)+1)))
		case 2:
			out = append(out, vswitch.PopVLAN())
		case 3:
			out = append(out, vswitch.SetEthSrc(pkt.MAC{9, 8, 7, 6, 5, byte(r.Intn(256))}))
		case 4:
			out = append(out, vswitch.SetEthDst(pkt.MAC{1, 2, 3, 4, 5, byte(r.Intn(256))}))
		}
	}
	return out
}

// TestPropertyFlowModRoundTrip: any flowMod encodes and decodes to an
// equivalent flowMod (compared by rendered form, which covers every field).
func TestPropertyFlowModRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	for i := 0; i < 500; i++ {
		in := flowMod{
			Command:  uint8(r.Intn(2) * 3), // add or delete
			Priority: uint16(r.Intn(65536)),
			Cookie:   r.Uint64(),
			Match:    randomMatch(r),
			Actions:  randomActions(r),
		}
		body, err := encodeFlowMod(in)
		if err != nil {
			t.Fatalf("iter %d: encode: %v", i, err)
		}
		out, err := parseFlowMod(body)
		if err != nil {
			t.Fatalf("iter %d: parse: %v", i, err)
		}
		if out.Command != in.Command || out.Priority != in.Priority || out.Cookie != in.Cookie {
			t.Fatalf("iter %d: header mismatch", i)
		}
		if out.Match.String() != in.Match.String() {
			t.Fatalf("iter %d: match: %q != %q", i, out.Match, in.Match)
		}
		if len(out.Actions) != len(in.Actions) {
			t.Fatalf("iter %d: action count", i)
		}
		for j := range in.Actions {
			if in.Actions[j].String() != out.Actions[j].String() {
				t.Fatalf("iter %d action %d: %v != %v", i, j, in.Actions[j], out.Actions[j])
			}
		}
	}
}

// TestPropertyMessageFraming: any (type, xid, body) survives the wire.
func TestPropertyMessageFraming(t *testing.T) {
	f := func(typ uint8, xid uint32, body []byte) bool {
		if len(body) > maxMessageLen-headerLen {
			body = body[:maxMessageLen-headerLen]
		}
		var buf bytes.Buffer
		in := message{Type: msgType(typ), Xid: xid, Body: body}
		if err := writeMessage(&buf, in); err != nil {
			return false
		}
		out, err := readMessage(&buf, new([headerLen]byte), nil)
		if err != nil {
			return false
		}
		return out.Type == in.Type && out.Xid == in.Xid && bytes.Equal(out.Body, in.Body)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestPropertyFlowStatsRoundTrip covers stats bodies of any size.
func TestPropertyFlowStatsRoundTrip(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		r := rand.New(rand.NewSource(seed))
		in := make([]FlowStat, int(n)%50)
		for i := range in {
			in[i] = FlowStat{
				Priority: uint16(r.Intn(65536)),
				Cookie:   r.Uint64(),
				Packets:  r.Uint64(),
				Bytes:    r.Uint64(),
			}
		}
		out, err := parseFlowStatsReply(encodeFlowStatsReply(in))
		if err != nil || len(out) != len(in) {
			return false
		}
		for i := range in {
			if in[i] != out[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
