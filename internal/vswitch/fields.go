package vswitch

import "repro/internal/pkt"

// Prefix is an exported IPv4 prefix for match (de)serialization.
type Prefix struct {
	Addr pkt.Addr
	Bits int
}

// MatchFields is the exported, optional-field view of a Match, used by wire
// codecs (internal/openflow) and the traffic steering manager. Nil pointers
// are wildcards; InPort 0 is a wildcard.
type MatchFields struct {
	InPort  uint32
	EthType *pkt.EthernetType
	VLANID  *uint16
	IPProto *pkt.IPProtocol
	IPSrc   *Prefix
	IPDst   *Prefix
	L4Src   *uint16
	L4Dst   *uint16
}

// Fields returns the exported view of the match. Pointer targets are copies;
// mutating them does not affect the match.
func (m Match) Fields() MatchFields {
	f := MatchFields{InPort: m.inPort, EthType: copyOf(m.ethType), VLANID: copyOf(m.vlanID),
		IPProto: copyOf(m.ipProto), L4Src: copyOf(m.l4Src), L4Dst: copyOf(m.l4Dst)}
	if m.ipSrc != nil {
		f.IPSrc = &Prefix{Addr: m.ipSrc.addr, Bits: m.ipSrc.bits}
	}
	if m.ipDst != nil {
		f.IPDst = &Prefix{Addr: m.ipDst.addr, Bits: m.ipDst.bits}
	}
	return f
}

// MatchFromFields builds a Match from its exported view; the match keeps
// copies of the pointer targets.
func MatchFromFields(f MatchFields) Match {
	m := Match{inPort: f.InPort, ethType: copyOf(f.EthType), vlanID: copyOf(f.VLANID),
		ipProto: copyOf(f.IPProto), l4Src: copyOf(f.L4Src), l4Dst: copyOf(f.L4Dst)}
	if f.IPSrc != nil {
		m.ipSrc = &prefix{addr: f.IPSrc.Addr, bits: f.IPSrc.Bits}
	}
	if f.IPDst != nil {
		m.ipDst = &prefix{addr: f.IPDst.Addr, bits: f.IPDst.Bits}
	}
	return m
}

// copyOf returns a pointer to a copy of *p, or nil for nil.
func copyOf[T any](p *T) *T {
	if p == nil {
		return nil
	}
	v := *p
	return &v
}
