package nf

import (
	"encoding/json"
	"fmt"
	"sync"

	"repro/internal/pkt"
)

// NAT port conventions.
const (
	NATPortInside  = 0
	NATPortOutside = 1
)

// natConn identifies one inside-originated connection by its full
// 5-tuple. Keying translations per connection (symmetric NAT, RFC 4787
// address-and-port-dependent mapping) rather than per inside endpoint is
// what makes the NAT shardable: a binding then belongs to exactly one
// steering bucket, so it can move between replicas with its flow.
type natConn struct {
	proto   pkt.IPProtocol
	srcIP   pkt.Addr
	srcPort uint16
	dstIP   pkt.Addr
	dstPort uint16
}

// tuple returns the steering 5-tuple of the connection's inside-to-outside
// direction — the identity a binding exports under.
func (c natConn) tuple() FlowTuple {
	return FlowTuple{Proto: c.proto, Src: c.srcIP, Dst: c.dstIP, SrcPort: c.srcPort, DstPort: c.dstPort}
}

// natRev identifies a translation from the return direction: remote
// endpoint plus allocated external port. Return packets are only accepted
// from the remote the binding was created toward (symmetric NAT), which is
// also what makes concurrent replicas allocation-safe — see allocPort.
type natRev struct {
	proto      pkt.IPProtocol
	remoteIP   pkt.Addr
	remotePort uint16
	extPort    uint16
}

// natOrigin is the inside endpoint a return packet is rewritten back to.
type natOrigin struct {
	ip   pkt.Addr
	port uint16
}

// NAT is a source NAT (masquerade), one of the "(large) number of common
// network functions" a Linux CPE ships natively. Traffic from the inside
// port is rewritten to the external address with an allocated port; return
// traffic on the outside port is translated back.
//
// NAT implements StatefulNF: its bindings export keyed by the outbound
// 5-tuple so the orchestrator can re-home a bucket's flows to another
// replica without dropping established connections.
type NAT struct {
	external pkt.Addr

	mu       sync.Mutex
	nextPort uint16
	forward  map[natConn]uint16   // outbound 5-tuple -> external port
	reverse  map[natRev]natOrigin // return direction -> inside endpoint
}

// natPortBase is the first external port allocated.
const natPortBase = 20000

// NewNAT builds a NAT with the given external address.
func NewNAT(external pkt.Addr) *NAT {
	return &NAT{
		external: external,
		nextPort: natPortBase,
		forward:  make(map[natConn]uint16),
		reverse:  make(map[natRev]natOrigin),
	}
}

// NewNATFromConfig builds a NAT from an NF-FG configuration map:
//
//	external_ip: the public address (required)
func NewNATFromConfig(config map[string]string) (Processor, error) {
	ext, ok := config["external_ip"]
	if !ok {
		return nil, fmt.Errorf("nf: nat config missing external_ip")
	}
	a, err := pkt.ParseAddr(ext)
	if err != nil {
		return nil, err
	}
	return NewNAT(a), nil
}

// Bindings returns the number of active translations.
func (n *NAT) Bindings() int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return len(n.forward)
}

// allocPort picks an unused external port for conn such that the RETURN
// flow (remote -> external:port) hashes to the same steering bucket as the
// outbound flow. That constraint keeps both directions of a connection on
// the same replica, and it also makes allocation conflict-free across
// replicas with no coordination: a colliding allocation would need two
// replicas to pick the same (remote, remote-port, ext-port) triple, but
// that triple fully determines the return bucket, and a bucket is owned by
// exactly one replica — so only the owner can ever mint bindings for it,
// and the local reverse-map check suffices. With 64 buckets the search
// visits ~64 candidate ports per allocation.
//
// Caller holds n.mu.
func (n *NAT) allocPort(conn natConn) (uint16, bool) {
	want := conn.tuple().Bucket()
	for tries := 0; tries < 1<<16; tries++ {
		p := n.nextPort
		n.nextPort++
		if n.nextPort == 0 {
			n.nextPort = natPortBase
		}
		rk := natRev{proto: conn.proto, remoteIP: conn.dstIP, remotePort: conn.dstPort, extPort: p}
		if _, used := n.reverse[rk]; used {
			continue
		}
		ret := FlowTuple{Proto: conn.proto, Src: conn.dstIP, Dst: n.external, SrcPort: conn.dstPort, DstPort: p}
		if ret.Bucket() != want {
			continue
		}
		return p, true
	}
	return 0, false
}

// natBindingData is the wire encoding of one exported binding; the
// connection 5-tuple itself rides in FlowState.Tuple.
type natBindingData struct {
	ExtPort uint16 `json:"ext-port"`
}

// ExportFlowState implements StatefulNF.
func (n *NAT) ExportFlowState(filter func(FlowTuple) bool) []FlowState {
	n.mu.Lock()
	defer n.mu.Unlock()
	var out []FlowState
	for conn, ext := range n.forward {
		t := conn.tuple()
		if filter != nil && !filter(t) {
			continue
		}
		data, err := json.Marshal(natBindingData{ExtPort: ext})
		if err != nil {
			continue // cannot happen for a fixed struct
		}
		out = append(out, FlowState{Tuple: t, Kind: "nat-binding", Data: data})
	}
	return out
}

// ImportFlowState implements StatefulNF. Re-importing an existing binding
// overwrites it (catch-up passes re-send flows already moved).
func (n *NAT) ImportFlowState(states []FlowState) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	for _, st := range states {
		if st.Kind != "nat-binding" {
			continue
		}
		var d natBindingData
		if err := json.Unmarshal(st.Data, &d); err != nil {
			return fmt.Errorf("nf: nat import: %w", err)
		}
		conn := natConn{
			proto: st.Tuple.Proto,
			srcIP: st.Tuple.Src, srcPort: st.Tuple.SrcPort,
			dstIP: st.Tuple.Dst, dstPort: st.Tuple.DstPort,
		}
		if old, ok := n.forward[conn]; ok && old != d.ExtPort {
			delete(n.reverse, natRev{proto: conn.proto, remoteIP: conn.dstIP, remotePort: conn.dstPort, extPort: old})
		}
		n.forward[conn] = d.ExtPort
		n.reverse[natRev{proto: conn.proto, remoteIP: conn.dstIP, remotePort: conn.dstPort, extPort: d.ExtPort}] =
			natOrigin{ip: conn.srcIP, port: conn.srcPort}
	}
	return nil
}

// DropFlowState removes the bindings the filter accepts — the source side
// of a completed migration, so a later scale-up cannot resurrect stale
// state. A nil filter clears everything.
func (n *NAT) DropFlowState(filter func(FlowTuple) bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	for conn, ext := range n.forward {
		if filter != nil && !filter(conn.tuple()) {
			continue
		}
		delete(n.forward, conn)
		delete(n.reverse, natRev{proto: conn.proto, remoteIP: conn.dstIP, remotePort: conn.dstPort, extPort: ext})
	}
}

// Process implements Processor.
func (n *NAT) Process(inPort int, frame []byte) (Result, error) {
	return n.ProcessInto(inPort, frame, nil)
}

// ProcessInto implements IntoProcessor.
func (n *NAT) ProcessInto(inPort int, frame []byte, out []Emission) (Result, error) {
	switch inPort {
	case NATPortInside:
		return n.outbound(frame, out)
	case NATPortOutside:
		return n.inbound(frame, out)
	default:
		return Result{}, fmt.Errorf("nf: nat has no port %d", inPort)
	}
}

// rewrite writes the translated frame into one pooled buffer: Ethernet
// (untagged), IPv4 and the UDP or TCP header, with h's addresses and ports
// as the caller rewrote them, then the transport payload. The headers are
// written without options and with lengths and checksums recomputed, and
// bytes past the transport payload are dropped — byte for byte what
// re-serializing the decoded layers produces.
func rewrite(h *headers) []byte {
	var hdrLen int
	var payload []byte
	if h.l4 == pkt.LayerTypeUDP {
		hdrLen, payload = pkt.UDPHeaderLen, h.udp.LayerPayload()
	} else {
		hdrLen, payload = pkt.TCPHeaderLen, h.tcp.LayerPayload()
	}
	const l4Off = pkt.EthernetHeaderLen + pkt.IPv4HeaderLen
	out := pkt.GetBuffer(l4Off + hdrLen + len(payload))
	seg := out[l4Off:]
	copy(seg[hdrLen:], payload)

	eth := pkt.Ethernet{SrcMAC: h.eth.SrcMAC, DstMAC: h.eth.DstMAC, EthernetType: pkt.EthernetTypeIPv4}
	eth.PutHeader(out)
	ip := pkt.IPv4{
		TOS: h.ip.TOS, Length: uint16(pkt.IPv4HeaderLen + len(seg)), ID: h.ip.ID,
		Flags: h.ip.Flags, FragOff: h.ip.FragOff, TTL: h.ip.TTL, Protocol: h.ip.Protocol,
		SrcIP: h.ip.SrcIP, DstIP: h.ip.DstIP,
	}
	if h.l4 == pkt.LayerTypeUDP {
		u := pkt.UDP{SrcPort: h.srcPort, DstPort: h.dstPort, Length: uint16(len(seg))}
		u.PutHeader(seg, &ip)
	} else {
		t := h.tcp
		t.SrcPort, t.DstPort = h.srcPort, h.dstPort
		t.PutHeader(seg, &ip)
	}
	ip.PutHeader(out[pkt.EthernetHeaderLen:])
	return out
}

func (n *NAT) outbound(frame []byte, out []Emission) (Result, error) {
	var h headers
	h.decode(frame)
	if !h.hasIP || h.l4 == pkt.LayerTypeZero {
		return Result{}, nil // not translatable (ICMP etc.): drop
	}

	conn := natConn{proto: h.ip.Protocol, srcIP: h.ip.SrcIP, srcPort: h.srcPort, dstIP: h.ip.DstIP, dstPort: h.dstPort}
	n.mu.Lock()
	ext, ok := n.forward[conn]
	if !ok {
		var free bool
		ext, free = n.allocPort(conn)
		if !free {
			n.mu.Unlock()
			return Result{}, fmt.Errorf("nf: nat port space exhausted")
		}
		n.forward[conn] = ext
		n.reverse[natRev{proto: conn.proto, remoteIP: conn.dstIP, remotePort: conn.dstPort, extPort: ext}] =
			natOrigin{ip: conn.srcIP, port: conn.srcPort}
	}
	n.mu.Unlock()

	h.ip.SrcIP, h.srcPort = n.external, ext
	return Result{Emissions: append(out, Emission{Port: NATPortOutside, Frame: rewrite(&h)})}, nil
}

func (n *NAT) inbound(frame []byte, out []Emission) (Result, error) {
	var h headers
	h.decode(frame)
	if !h.hasIP || h.l4 == pkt.LayerTypeZero || h.ip.DstIP != n.external {
		return Result{}, nil
	}

	n.mu.Lock()
	origin, ok := n.reverse[natRev{proto: h.ip.Protocol, remoteIP: h.ip.SrcIP, remotePort: h.srcPort, extPort: h.dstPort}]
	n.mu.Unlock()
	if !ok {
		return Result{}, nil // no binding from that remote: drop, like a real symmetric NAT
	}

	h.ip.DstIP, h.dstPort = origin.ip, origin.port
	return Result{Emissions: append(out, Emission{Port: NATPortInside, Frame: rewrite(&h)})}, nil
}
