// Package vswitch implements the software switch used for every Logical
// Switch Instance (LSI) of the compute node.
//
// A switch holds one OpenFlow-style flow table: prioritized flow entries,
// each pairing a Match against a list of Actions — exactly what the traffic
// steering manager compiles NF-FG rules into. A frame runs the actions of
// the highest-priority entry it matches; a frame that matches none is
// counted as a table miss and dropped.
//
// The per-packet path is lock-free: the flow table and ports are
// copy-on-write snapshots, and on switches with enough flow entries to pay
// for it a sharded exact-match microflow cache (cache.go) memoizes the
// matched entry per flow key, invalidated by generation on every flow-mod or
// port change.
package vswitch

import (
	"fmt"
	"strings"

	"repro/internal/pkt"
)

// flowKey is the parsed header fields of one frame traversing the pipeline,
// extracted once per packet (in the spirit of gopacket's
// DecodingLayerParser: no allocation, fixed known layers). It holds exactly
// the fields a Match can select on.
type flowKey struct {
	inPort  uint32
	hasVLAN bool
	vlanID  uint16
	ethType pkt.EthernetType // inner type when tagged
	isIP    bool
	ipSrc   pkt.Addr
	ipDst   pkt.Addr
	ipProto pkt.IPProtocol
	hasL4   bool
	l4Src   uint16
	l4Dst   uint16
}

// extractKey parses data into k. Parsing stops gracefully at truncated or
// non-IP packets; the corresponding has*/is* flags stay false.
func extractKey(data []byte, inPort uint32, k *flowKey) error {
	*k = flowKey{inPort: inPort}
	if len(data) < pkt.EthernetHeaderLen {
		return fmt.Errorf("vswitch: frame too short (%d bytes)", len(data))
	}
	k.ethType = pkt.EthernetType(uint16(data[12])<<8 | uint16(data[13]))
	off := pkt.EthernetHeaderLen
	if k.ethType == pkt.EthernetTypeVLAN {
		if len(data) < off+pkt.VLANHeaderLen {
			return fmt.Errorf("vswitch: truncated VLAN tag")
		}
		k.hasVLAN = true
		k.vlanID = (uint16(data[off])<<8 | uint16(data[off+1])) & 0x0fff
		k.ethType = pkt.EthernetType(uint16(data[off+2])<<8 | uint16(data[off+3]))
		off += pkt.VLANHeaderLen
	}
	if k.ethType != pkt.EthernetTypeIPv4 || len(data) < off+pkt.IPv4HeaderLen {
		return nil
	}
	if data[off]>>4 != 4 {
		return nil
	}
	ihl := int(data[off]&0x0f) * 4
	if ihl < pkt.IPv4HeaderLen || len(data) < off+ihl {
		return nil
	}
	k.isIP = true
	k.ipProto = pkt.IPProtocol(data[off+9])
	copy(k.ipSrc[:], data[off+12:off+16])
	copy(k.ipDst[:], data[off+16:off+20])
	l4 := off + ihl
	switch k.ipProto {
	case pkt.IPProtocolUDP, pkt.IPProtocolTCP:
		if len(data) >= l4+4 {
			k.hasL4 = true
			k.l4Src = uint16(data[l4])<<8 | uint16(data[l4+1])
			k.l4Dst = uint16(data[l4+2])<<8 | uint16(data[l4+3])
		}
	}
	return nil
}

// hashMix folds one 64-bit word into the running hash state with a
// multiply-xorshift round (the splitmix64 finisher). Distribution only has
// to be good enough for cache partitioning and RSS steering, so a few
// multiplies beat a full generic maphash over the struct — the generic hash
// was ~19% of the cached hit path.
func hashMix(h, v uint64) uint64 {
	h ^= v
	h *= 0x9e3779b97f4a7c15
	h ^= h >> 29
	return h
}

// hash packs the key into three words and mixes them under the given seed,
// one round each. Identical keys always collide (required: the microflow
// cache is keyed by this hash and verified against the stored key); the
// multiply chain is the latency-critical part of the cached hit path.
func (k *flowKey) hash(seed uint64) uint64 {
	w0 := uint64(k.inPort) | uint64(k.ethType)<<32 | uint64(k.vlanID)<<48
	w1 := uint64(k.ipSrc.Uint32()) | uint64(k.ipDst.Uint32())<<32
	w2 := uint64(k.l4Src) | uint64(k.l4Dst)<<16 | uint64(k.ipProto)<<32
	if k.hasVLAN {
		w2 |= 1 << 40
	}
	if k.isIP {
		w2 |= 1 << 41
	}
	if k.hasL4 {
		w2 |= 1 << 42
	}
	return hashMix(hashMix(hashMix(seed, w0), w1), w2)
}

// Match selects packets by header fields. The zero Match matches everything;
// set fields with the With* builders to narrow it. Matches are
// value-semantics and safe to copy.
type Match struct {
	inPort  uint32 // 0 = any (valid port numbers start at 1)
	ethType *pkt.EthernetType
	vlanID  *uint16
	ipProto *pkt.IPProtocol
	ipSrc   *prefix
	ipDst   *prefix
	l4Src   *uint16
	l4Dst   *uint16
}

type prefix struct {
	addr pkt.Addr
	bits int
}

func (p prefix) contains(a pkt.Addr) bool {
	if p.bits == 0 {
		return true
	}
	mask := ^uint32(0) << (32 - p.bits)
	return a.Uint32()&mask == p.addr.Uint32()&mask
}

func (p prefix) String() string { return fmt.Sprintf("%v/%d", p.addr, p.bits) }

// MatchAll returns the wildcard match.
func MatchAll() Match { return Match{} }

// WithInPort narrows the match to one ingress port.
func (m Match) WithInPort(p uint32) Match { m.inPort = p; return m }

// WithEthType narrows the match to one EtherType (the inner type for tagged
// frames).
func (m Match) WithEthType(t pkt.EthernetType) Match { m.ethType = &t; return m }

// WithVLAN narrows the match to frames tagged with the given VLAN ID.
func (m Match) WithVLAN(id uint16) Match { m.vlanID = &id; return m }

// WithIPProto narrows the match to one IP protocol.
func (m Match) WithIPProto(p pkt.IPProtocol) Match { m.ipProto = &p; return m }

// WithIPSrc narrows the match to a source prefix.
func (m Match) WithIPSrc(a pkt.Addr, bits int) Match {
	m.ipSrc = &prefix{addr: a, bits: bits}
	return m
}

// WithIPDst narrows the match to a destination prefix.
func (m Match) WithIPDst(a pkt.Addr, bits int) Match {
	m.ipDst = &prefix{addr: a, bits: bits}
	return m
}

// WithL4Src narrows the match to one transport source port.
func (m Match) WithL4Src(p uint16) Match { m.l4Src = &p; return m }

// WithL4Dst narrows the match to one transport destination port.
func (m Match) WithL4Dst(p uint16) Match { m.l4Dst = &p; return m }

// Matches reports whether the extracted key satisfies the match.
func (m Match) matches(k *flowKey) bool {
	if m.inPort != 0 && m.inPort != k.inPort {
		return false
	}
	if m.ethType != nil && *m.ethType != k.ethType {
		return false
	}
	if m.vlanID != nil && (!k.hasVLAN || k.vlanID != *m.vlanID) {
		return false
	}
	if m.ipProto != nil && (!k.isIP || k.ipProto != *m.ipProto) {
		return false
	}
	if m.ipSrc != nil && (!k.isIP || !m.ipSrc.contains(k.ipSrc)) {
		return false
	}
	if m.ipDst != nil && (!k.isIP || !m.ipDst.contains(k.ipDst)) {
		return false
	}
	if m.l4Src != nil && (!k.hasL4 || k.l4Src != *m.l4Src) {
		return false
	}
	if m.l4Dst != nil && (!k.hasL4 || k.l4Dst != *m.l4Dst) {
		return false
	}
	return true
}

// String renders the match in a compact ovs-ofctl-like syntax.
func (m Match) String() string {
	var parts []string
	if m.inPort != 0 {
		parts = append(parts, fmt.Sprintf("in_port=%d", m.inPort))
	}
	if m.ethType != nil {
		parts = append(parts, "dl_type="+m.ethType.String())
	}
	if m.vlanID != nil {
		parts = append(parts, fmt.Sprintf("dl_vlan=%d", *m.vlanID))
	}
	if m.ipProto != nil {
		parts = append(parts, "nw_proto="+m.ipProto.String())
	}
	if m.ipSrc != nil {
		parts = append(parts, "nw_src="+m.ipSrc.String())
	}
	if m.ipDst != nil {
		parts = append(parts, "nw_dst="+m.ipDst.String())
	}
	if m.l4Src != nil {
		parts = append(parts, fmt.Sprintf("tp_src=%d", *m.l4Src))
	}
	if m.l4Dst != nil {
		parts = append(parts, fmt.Sprintf("tp_dst=%d", *m.l4Dst))
	}
	if len(parts) == 0 {
		return "any"
	}
	return strings.Join(parts, ",")
}
