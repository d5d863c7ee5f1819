package nf

import "repro/internal/pkt"

// headers is a frame decoded into values on the caller's stack: the layers
// pkt.NewPacket would find — Ethernet, any 802.1Q tags, IPv4, UDP or TCP —
// without allocating a packet or a layer per call.
type headers struct {
	eth pkt.Ethernet
	// mark is the VLAN ID of the outermost 802.1Q tag (0 when untagged).
	mark  uint16
	ip    pkt.IPv4
	hasIP bool
	// l4 is pkt.LayerTypeUDP or pkt.LayerTypeTCP when that header decoded,
	// and pkt.LayerTypeZero otherwise.
	l4               pkt.LayerType
	udp              pkt.UDP
	tcp              pkt.TCP
	srcPort, dstPort uint16
}

// decode parses frame. A layer that fails to decode ends the walk, leaving
// the layers after it absent, as pkt.NewPacket does.
func (h *headers) decode(frame []byte) {
	if h.eth.DecodeFromBytes(frame) != nil {
		return
	}
	typ, data := h.eth.EthernetType, h.eth.LayerPayload()
	for depth := 0; typ == pkt.EthernetTypeVLAN; depth++ {
		var v pkt.VLAN
		if v.DecodeFromBytes(data) != nil {
			return
		}
		if depth == 0 {
			h.mark = v.VLANID
		}
		typ, data = v.EthernetType, v.LayerPayload()
	}
	if typ != pkt.EthernetTypeIPv4 || h.ip.DecodeFromBytes(data) != nil {
		return
	}
	h.hasIP = true
	switch h.ip.Protocol {
	case pkt.IPProtocolUDP:
		if h.udp.DecodeFromBytes(h.ip.LayerPayload()) == nil {
			h.l4, h.srcPort, h.dstPort = pkt.LayerTypeUDP, h.udp.SrcPort, h.udp.DstPort
		}
	case pkt.IPProtocolTCP:
		if h.tcp.DecodeFromBytes(h.ip.LayerPayload()) == nil {
			h.l4, h.srcPort, h.dstPort = pkt.LayerTypeTCP, h.tcp.SrcPort, h.tcp.DstPort
		}
	}
}
