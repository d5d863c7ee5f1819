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
	f := MatchFields{InPort: m.inPort}
	if m.ethType != nil {
		v := *m.ethType
		f.EthType = &v
	}
	if m.vlanID != nil {
		v := *m.vlanID
		f.VLANID = &v
	}
	if m.ipProto != nil {
		v := *m.ipProto
		f.IPProto = &v
	}
	if m.ipSrc != nil {
		f.IPSrc = &Prefix{Addr: m.ipSrc.addr, Bits: m.ipSrc.bits}
	}
	if m.ipDst != nil {
		f.IPDst = &Prefix{Addr: m.ipDst.addr, Bits: m.ipDst.bits}
	}
	if m.l4Src != nil {
		v := *m.l4Src
		f.L4Src = &v
	}
	if m.l4Dst != nil {
		v := *m.l4Dst
		f.L4Dst = &v
	}
	return f
}

// MatchFromFields builds a Match from its exported view.
func MatchFromFields(f MatchFields) Match {
	m := MatchAll()
	if f.InPort != 0 {
		m = m.WithInPort(f.InPort)
	}
	if f.EthType != nil {
		m = m.WithEthType(*f.EthType)
	}
	if f.VLANID != nil {
		m = m.WithVLAN(*f.VLANID)
	}
	if f.IPProto != nil {
		m = m.WithIPProto(*f.IPProto)
	}
	if f.IPSrc != nil {
		m = m.WithIPSrc(f.IPSrc.Addr, f.IPSrc.Bits)
	}
	if f.IPDst != nil {
		m = m.WithIPDst(f.IPDst.Addr, f.IPDst.Bits)
	}
	if f.L4Src != nil {
		m = m.WithL4Src(*f.L4Src)
	}
	if f.L4Dst != nil {
		m = m.WithL4Dst(*f.L4Dst)
	}
	return m
}
