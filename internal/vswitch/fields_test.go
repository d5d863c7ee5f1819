package vswitch

import (
	"strings"
	"testing"

	"repro/internal/pkt"
)

func fullMatch() Match {
	return MatchAll().
		WithInPort(7).
		WithEthType(pkt.EthernetTypeIPv4).
		WithVLAN(300).
		WithIPProto(pkt.IPProtocolUDP).
		WithIPSrc(ipA, 24).WithIPDst(ipB, 32).
		WithL4Src(53).WithL4Dst(5353)
}

func TestFieldsRoundTrip(t *testing.T) {
	m := fullMatch()
	f := m.Fields()
	back := MatchFromFields(f)
	if back.String() != m.String() {
		t.Errorf("round trip:\n in  %v\n out %v", m, back)
	}
	// Pointer targets must be copies.
	*f.L4Src = 9
	*f.VLANID = 9
	f.IPSrc.Bits = 1
	if *m.Fields().L4Src != 53 || *m.Fields().VLANID != 300 || m.Fields().IPSrc.Bits != 24 {
		t.Error("Fields aliases internal state")
	}
	// Empty matches survive too.
	if MatchFromFields(MatchAll().Fields()).String() != "any" {
		t.Error("wildcard round trip")
	}
}

func TestMatchString(t *testing.T) {
	s := fullMatch().String()
	for _, want := range []string{
		"in_port=7", "dl_type=IPv4", "dl_vlan=300",
		"nw_proto=UDP", "nw_src=10.0.0.1/24", "nw_dst=10.0.0.2/32",
		"tp_src=53", "tp_dst=5353",
	} {
		if !strings.Contains(s, want) {
			t.Errorf("match string %q missing %q", s, want)
		}
	}
	if MatchAll().String() != "any" {
		t.Error("wildcard string")
	}
}

func TestActionStrings(t *testing.T) {
	cases := map[string]Action{
		"output:3":                           Output(3),
		"select_bucket:2(x22),3(x21),4(x21)": SelectBucket(laneBuckets()),
		"push_vlan:9":                        PushVLAN(9),
		"pop_vlan":                           PopVLAN(),
		"set_dl_src:02:00:00:00:00:0a":       SetEthSrc(macA),
		"set_dl_dst:02:00:00:00:00:0b":       SetEthDst(macB),
	}
	for want, a := range cases {
		if a.String() != want {
			t.Errorf("%T = %q, want %q", a, a.String(), want)
		}
	}
}

func TestSwitchAccessors(t *testing.T) {
	sw := NewOptions("lsi-x", 0x77, Options{Workers: -1}) // clamps to inline
	if sw.Name() != "lsi-x" || sw.DPID() != 0x77 || sw.Workers() != 0 {
		t.Errorf("accessors: %s %#x %d", sw.Name(), sw.DPID(), sw.Workers())
	}
}
