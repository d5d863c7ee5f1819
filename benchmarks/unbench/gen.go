package main

import (
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math/rand"

	un "repro"
	"repro/internal/pkt"
)

// Everything the program under test receives is generated here from the
// seed alone: frames, flow sets, the cold-traffic schedule, NF
// configurations and the churn graph. The same seed yields the same bytes
// (digest() is what the determinism test compares).

const (
	smallFrame = 64   // smallest Ethernet frame: per-packet cost dominates
	mtuFrame   = 1500 // the paper's Table 1 frame size
	udpHeaders = pkt.EthernetHeaderLen + pkt.IPv4HeaderLen + pkt.UDPHeaderLen
)

var (
	hostMAC = pkt.MAC{0x02, 0, 0, 0, 0x99, 0x01}
	peerMAC = pkt.MAC{0x02, 0, 0, 0, 0x99, 0x02}
)

// flow is one UDP 5-tuple.
type flow struct {
	src, dst     pkt.Addr
	sport, dport uint16
}

// frameArena hands out frames backed by one allocation, each with an exact
// capacity so a sink's pkt.PutBuffer can never mistake a template for a
// pooled buffer (internal/measure's consumer contract).
type frameArena struct {
	buf  []byte
	size int
}

func newFrameArena(n, size int) *frameArena {
	return &frameArena{buf: make([]byte, 0, n*size), size: size}
}

func (a *frameArena) add(f []byte) []byte {
	if len(f) != a.size || len(a.buf)+a.size > cap(a.buf) {
		panic(fmt.Sprintf("unbench: frame of %d bytes does not fit the %d-byte arena", len(f), a.size))
	}
	start := len(a.buf)
	a.buf = append(a.buf, f...)
	return a.buf[start : start+a.size : start+a.size]
}

func udpFrame(fl flow, size int, fill byte, srcMAC, dstMAC pkt.MAC) []byte {
	return pkt.MustBuildFrame(pkt.FrameSpec{
		SrcMAC: srcMAC, DstMAC: dstMAC,
		SrcIP: fl.src, DstIP: fl.dst, SrcPort: fl.sport, DstPort: fl.dport,
		PayloadLen: size - udpHeaders, PayloadByte: fill,
	})
}

// distinctFlows draws n distinct 5-tuples: sources in srcNet/8, destinations
// in dstNet/24, destination ports from dport().
func distinctFlows(r *rand.Rand, n int, srcNet, dstNet pkt.Addr, dport func() uint16) []flow {
	seen := make(map[flow]bool, n)
	out := make([]flow, 0, n)
	for len(out) < n {
		fl := flow{
			src:   pkt.Addr{srcNet[0], byte(r.Intn(256)), byte(r.Intn(256)), byte(1 + r.Intn(254))},
			dst:   pkt.Addr{dstNet[0], dstNet[1], dstNet[2], byte(1 + r.Intn(254))},
			sport: uint16(1024 + r.Intn(64000)),
			dport: dport(),
		}
		if !seen[fl] {
			seen[fl] = true
			out = append(out, fl)
		}
	}
	return out
}

func ifaceEndpoints(lan, wan string) []un.Endpoint {
	return []un.Endpoint{
		{ID: "lan", Type: un.EPInterface, Interface: lan},
		{ID: "wan", Type: un.EPInterface, Interface: wan},
	}
}

// chainRules steers lan -> nfs[0] -> ... -> nfs[n-1] -> wan through ports
// "0" (inside) and "1" (outside) of every NF, and back when bidir is set.
func chainRules(nfs []string, bidir bool) []un.FlowRule {
	var rules []un.FlowRule
	add := func(from, to un.PortRef) {
		rules = append(rules, un.FlowRule{
			ID: fmt.Sprintf("r%d", len(rules)), Priority: 10,
			Match:   un.RuleMatch{PortIn: from},
			Actions: []un.RuleAction{{Type: un.ActOutput, Output: to}},
		})
	}
	prev := un.EndpointRef("lan")
	for _, id := range nfs {
		add(prev, un.NFPortRef(id, "0"))
		prev = un.NFPortRef(id, "1")
	}
	add(prev, un.EndpointRef("wan"))
	if bidir {
		prev = un.EndpointRef("wan")
		for i := len(nfs) - 1; i >= 0; i-- {
			add(prev, un.NFPortRef(nfs[i], "1"))
			prev = un.NFPortRef(nfs[i], "0")
		}
		add(prev, un.EndpointRef("lan"))
	}
	return rules
}

func twoPorts() []un.NFPort { return []un.NFPort{{ID: "0"}, {ID: "1"}} }

// ---------------------------------------------------------------- ipsec-tunnel

const ipsecFlows = 16

// ipsecInputs is the traffic and configuration of ipsec-tunnel: one graph
// per tunnel end with mirrored local/remote, and 16 MTU flows each way.
type ipsecInputs struct {
	graphs [2]*un.Graph // node A, node B
	lanes  [2][][]byte  // injected at A's LAN, at B's LAN
}

func genIPsec(seed int64) *ipsecInputs {
	r := rand.New(rand.NewSource(seed))
	key := make([]byte, 20)
	r.Read(key)
	spi := fmt.Sprint(256 + r.Intn(1<<20))
	ends := [2]string{"192.0.2.1", "203.0.113.9"}
	in := &ipsecInputs{}
	for side := 0; side < 2; side++ {
		in.graphs[side] = &un.Graph{
			ID: "tunnel",
			NFs: []un.NF{{
				ID: "vpn", Name: "ipsec", Ports: twoPorts(),
				TechnologyPreference: un.TechNative,
				Config: map[string]string{
					"local": ends[side], "remote": ends[1-side],
					"spi": spi, "key": hex.EncodeToString(key),
				},
			}},
			Endpoints: ifaceEndpoints("eth0", "eth1"),
			Rules:     chainRules([]string{"vpn"}, true),
		}
	}
	nets := [2]pkt.Addr{{10, 1, 0, 0}, {10, 2, 0, 0}}
	for side := 0; side < 2; side++ {
		arena := newFrameArena(ipsecFlows, mtuFrame)
		flows := distinctFlows(r, ipsecFlows, nets[side], nets[1-side],
			func() uint16 { return uint16(1 + r.Intn(65535)) })
		for _, fl := range flows {
			in.lanes[side] = append(in.lanes[side],
				arena.add(udpFrame(fl, mtuFrame, byte(r.Intn(256)), hostMAC, peerMAC)))
		}
	}
	return in
}

// ----------------------------------------------------------------- chain-small

const (
	chainFlows     = 4096 // one slot per hop and direction: overflows both 8192-slot caches (README, finding 4)
	chainExternal  = "198.51.100.1"
	chainFWRuleCnt = 6
)

// chainInputs is chain-small: firewall(conntrack) -> nat -> monitor and the
// outbound half of the traffic. The return half depends on the external
// ports the NAT hands out, so it is built during set-up (returnFrame).
type chainInputs struct {
	graph    *un.Graph
	flows    []flow
	outbound [][]byte
}

func genChain(seed int64) *chainInputs {
	r := rand.New(rand.NewSource(seed))
	// Five rules that never match the generated UDP traffic, then the one
	// that accepts it: every first packet of a flow walks the whole list.
	rules := ""
	for i := 0; i < chainFWRuleCnt-1; i++ {
		rules += fmt.Sprintf("drop proto=tcp dport=%d;", 1+r.Intn(1023))
	}
	rules += "accept proto=udp src=10.0.0.0/8"
	in := &chainInputs{
		graph: &un.Graph{
			ID: "chain",
			NFs: []un.NF{
				{ID: "fw", Name: "firewall", Ports: twoPorts(),
					Config: map[string]string{"rules": rules, "default": "drop", "conntrack": "true"}},
				{ID: "nat", Name: "nat", Ports: twoPorts(),
					Config: map[string]string{"external_ip": chainExternal}},
				{ID: "mon", Name: "monitor", Ports: twoPorts()},
			},
			Endpoints: ifaceEndpoints("eth0", "eth1"),
			Rules:     chainRules([]string{"fw", "nat", "mon"}, true),
		},
	}
	in.flows = distinctFlows(r, chainFlows, pkt.Addr{10, 0, 0, 0}, pkt.Addr{203, 0, 113, 0},
		func() uint16 { return uint16(1024 + r.Intn(60000)) })
	arena := newFrameArena(chainFlows, smallFrame)
	for _, fl := range in.flows {
		in.outbound = append(in.outbound,
			arena.add(udpFrame(fl, smallFrame, byte(r.Intn(256)), hostMAC, peerMAC)))
	}
	return in
}

// returnFrame builds the reply to a translated outbound frame: remote ->
// external address and port, as the far end of the connection would send it.
func returnFrame(translated []byte) ([]byte, error) {
	t, err := parseUDP(translated)
	if err != nil {
		return nil, err
	}
	back := flow{src: t.dst, dst: t.src, sport: t.dport, dport: t.sport}
	return udpFrame(back, len(translated), translated[len(translated)-1], peerMAC, hostMAC), nil
}

// ------------------------------------------------------------------- fwd-flows

const (
	fwdRules     = 256
	fwdHotFlows  = 256
	fwdColdFlows = 65536 // 8x the 8192-slot cache: a cold frame is a certain miss
	fwdColdShare = 0.10
	fwdSchedule  = 1 << 16
	fwdFirstPort = 1000
)

// fwdInputs is fwd-flows: a graph with no NF and 256 L4 rules, a hot flow
// set that stays cached and a cold set cycled round-robin; cold[i] of the
// schedule says whether the i-th frame is cold.
type fwdInputs struct {
	graph     *un.Graph
	hot, cold [][]byte
	schedule  []bool
}

func genFwd(seed int64) *fwdInputs {
	r := rand.New(rand.NewSource(seed))
	g := &un.Graph{ID: "fwd", Endpoints: ifaceEndpoints("eth0", "eth1")}
	for i := 0; i < fwdRules; i++ {
		g.Rules = append(g.Rules, un.FlowRule{
			ID: fmt.Sprintf("r%d", i), Priority: 10,
			Match: un.RuleMatch{PortIn: un.EndpointRef("lan"),
				IPProto: uint8(pkt.IPProtocolUDP), L4Dst: uint16(fwdFirstPort + i)},
			Actions: []un.RuleAction{{Type: un.ActOutput, Output: un.EndpointRef("wan")}},
		})
	}
	in := &fwdInputs{graph: g, schedule: make([]bool, fwdSchedule)}
	for i := range in.schedule {
		in.schedule[i] = r.Float64() < fwdColdShare
	}
	build := func(n int, srcNet pkt.Addr, rule func(i int) int) [][]byte {
		arena := newFrameArena(n, smallFrame)
		i := 0
		flows := distinctFlows(r, n, srcNet, pkt.Addr{203, 0, 113, 0}, func() uint16 {
			p := uint16(fwdFirstPort + rule(i))
			i++
			return p
		})
		out := make([][]byte, 0, n)
		for _, fl := range flows {
			out = append(out, arena.add(udpFrame(fl, smallFrame, byte(r.Intn(256)), hostMAC, peerMAC)))
		}
		return out
	}
	in.hot = build(fwdHotFlows, pkt.Addr{10, 0, 0, 0}, func(i int) int { return i % fwdRules })
	in.cold = build(fwdColdFlows, pkt.Addr{172, 0, 0, 0}, func(int) int { return r.Intn(fwdRules) })
	return in
}

// ---------------------------------------------------------------- deploy-churn

const (
	churnNFs     = 6
	churnGraphID = "svc"
	probeFrames  = 4
)

// churnInputs is deploy-churn: the create and update versions of one 6-NF
// chain (as the JSON bodies a client would PUT) and the probe frames.
type churnInputs struct {
	create, update         *un.Graph
	createBody, updateBody []byte
	probe                  [][]byte
}

func genChurn(seed int64) *churnInputs {
	r := rand.New(rand.NewSource(seed))
	templates := []string{"firewall", "monitor", "bridge"}
	g := &un.Graph{ID: churnGraphID, Endpoints: ifaceEndpoints("lan", "wan")}
	var ids []string
	for i := 0; i < churnNFs; i++ {
		nf := un.NF{ID: fmt.Sprintf("nf%d", i), Name: templates[i%len(templates)], Ports: twoPorts()}
		if nf.Name == "firewall" {
			nf.Config = map[string]string{
				"rules": fmt.Sprintf("drop proto=tcp dport=%d", 1+r.Intn(1023)), "default": "accept"}
		}
		g.NFs = append(g.NFs, nf)
		ids = append(ids, nf.ID)
	}
	g.Rules = chainRules(ids, false)
	upd := g.Clone()
	upd.NFs[0].Config["rules"] = fmt.Sprintf("drop proto=tcp dport=%d;drop proto=tcp dport=%d",
		1+r.Intn(1023), 1+r.Intn(1023))
	in := &churnInputs{create: g, update: upd}
	var err error
	if in.createBody, err = json.Marshal(g); err != nil {
		panic(err) // a generated graph always encodes
	}
	if in.updateBody, err = json.Marshal(upd); err != nil {
		panic(err)
	}
	arena := newFrameArena(probeFrames, smallFrame)
	flows := distinctFlows(r, probeFrames, pkt.Addr{10, 0, 0, 0}, pkt.Addr{203, 0, 113, 0},
		func() uint16 { return uint16(1024 + r.Intn(60000)) })
	for _, fl := range flows {
		in.probe = append(in.probe, arena.add(udpFrame(fl, smallFrame, byte(r.Intn(256)), hostMAC, peerMAC)))
	}
	return in
}

// ---------------------------------------------------------------------- digest

// digest hashes every generated input of a workload in the order the
// program will receive it: graph bodies, then the first 4096 frames of the
// send sequence.
func digest(workload string, seed int64) (uint64, error) {
	h := fnv.New64a()
	graph := func(g *un.Graph) {
		b, err := json.Marshal(g)
		if err != nil {
			panic(err)
		}
		h.Write(b)
	}
	const n = 4096
	switch workload {
	case "ipsec-tunnel":
		in := genIPsec(seed)
		graph(in.graphs[0])
		graph(in.graphs[1])
		for i := 0; i < n; i++ {
			h.Write(in.lanes[i%2][(i/2)%ipsecFlows])
		}
	case "chain-small":
		in := genChain(seed)
		graph(in.graph)
		for _, f := range in.outbound {
			h.Write(f)
		}
	case "fwd-flows":
		in := genFwd(seed)
		graph(in.graph)
		p := fwdPicker{in: in}
		for i := 0; i < n; i++ {
			h.Write(p.next())
		}
	case "deploy-churn":
		in := genChurn(seed)
		h.Write(in.createBody)
		h.Write(in.updateBody)
		for _, f := range in.probe {
			h.Write(f)
		}
	default:
		return 0, fmt.Errorf("unbench: unknown workload %q", workload)
	}
	return h.Sum64(), nil
}

// fwdPicker walks the fwd-flows send sequence: the schedule decides hot or
// cold, each set is cycled round-robin.
type fwdPicker struct {
	in          *fwdInputs
	i, hot, col int
	colds       uint64 // cold frames picked so far
}

func (p *fwdPicker) next() []byte {
	cold := p.in.schedule[p.i]
	if p.i++; p.i == len(p.in.schedule) {
		p.i = 0
	}
	if cold {
		f := p.in.cold[p.col]
		if p.col++; p.col == len(p.in.cold) {
			p.col = 0
		}
		p.colds++
		return f
	}
	f := p.in.hot[p.hot]
	if p.hot++; p.hot == len(p.in.hot) {
		p.hot = 0
	}
	return f
}

// ------------------------------------------------------------- frame inspection

// udpView is the addressing of an untagged Ethernet/IPv4/UDP frame.
type udpView struct {
	src, dst     pkt.Addr
	sport, dport uint16
}

func parseUDP(frame []byte) (udpView, error) {
	var v udpView
	if len(frame) < udpHeaders {
		return v, fmt.Errorf("unbench: frame of %d bytes is too short for UDP", len(frame))
	}
	ip := frame[pkt.EthernetHeaderLen:]
	if ip[0]>>4 != 4 || int(ip[0]&0x0f)*4 != pkt.IPv4HeaderLen || ip[9] != byte(pkt.IPProtocolUDP) {
		return v, fmt.Errorf("unbench: not a plain IPv4/UDP frame")
	}
	copy(v.src[:], ip[12:16])
	copy(v.dst[:], ip[16:20])
	udp := ip[pkt.IPv4HeaderLen:]
	v.sport = binary.BigEndian.Uint16(udp[0:2])
	v.dport = binary.BigEndian.Uint16(udp[2:4])
	return v, nil
}

// checksumsValid verifies the IPv4 header checksum and the UDP checksum
// (pseudo-header included) of an untagged Ethernet/IPv4/UDP frame: a
// correct Internet checksum makes the ones'-complement sum of the covered
// bytes fold to 0xffff.
func checksumsValid(frame []byte) bool {
	if len(frame) < udpHeaders {
		return false
	}
	ip := frame[pkt.EthernetHeaderLen:]
	if pkt.Checksum(ip[:pkt.IPv4HeaderLen]) != 0 {
		return false
	}
	total := int(binary.BigEndian.Uint16(ip[2:4]))
	if total < pkt.IPv4HeaderLen+pkt.UDPHeaderLen || total > len(ip) {
		return false
	}
	udp := ip[pkt.IPv4HeaderLen:total]
	pseudo := make([]byte, 0, 12+len(udp)+1)
	pseudo = append(pseudo, ip[12:20]...)
	pseudo = append(pseudo, 0, byte(pkt.IPProtocolUDP), byte(len(udp)>>8), byte(len(udp)))
	pseudo = append(pseudo, udp...)
	return pkt.Checksum(pseudo) == 0
}
