package main

import (
	"bytes"
	"fmt"
	"runtime"
	"time"

	un "repro"
	"repro/internal/netdev"
	"repro/internal/pkt"
)

const (
	burstLen    = 32 // frames per SendBatch, and per direction before lanes alternate
	oracleEvery = 64 // 1 in 64 measured frames is verified at egress
)

var epoch = time.Now()

// nanotime reads the monotonic clock once.
func nanotime() int64 { return int64(time.Since(epoch)) }

// lane is one direction of traffic through a datapath workload: frames are
// injected at tx and must emerge at rx.
type lane struct {
	tx, rx *netdev.Port
	next   func() []byte
	// check is the output oracle: whether got is the correct egress form
	// of the injected frame sent.
	check func(sent, got []byte) bool
}

// datapath drives a packet-path workload from one goroutine, closed loop:
// delivery is run-to-completion on the sender, so every frame of a burst has
// left the system (and was seen by the egress handler) when SendBatch
// returns. The egress handlers therefore run on the load goroutine and the
// fields below need no synchronisation.
type datapath struct {
	workload string
	nodes    []*un.Node
	lanes    []*lane
	cleanup  []func()

	expect   []netdev.Frame // frames of the send in flight, in order
	k        int            // deliveries seen for it
	checkAll bool
	timed    bool  // latency mode: stamp the egress time
	egressAt int64 // nanotime of the last delivery

	sent, delivered, corrupt uint64

	burst [burstLen]netdev.Frame
	lat   hist
}

func (d *datapath) attach() {
	for _, l := range d.lanes {
		l := l
		l.rx.SetHandler(func(f netdev.Frame) { d.deliver(l, f) })
		d.cleanup = append(d.cleanup, func() { l.rx.SetHandler(nil) })
	}
}

// deliver is the egress sink. It follows internal/measure's consumer
// contract: the buffer goes back to the pool once it has been inspected.
func (d *datapath) deliver(l *lane, f netdev.Frame) {
	if d.timed {
		d.egressAt = nanotime()
	}
	d.delivered++
	switch {
	case d.k >= len(d.expect):
		d.corrupt++ // more frames out than went in
	case d.checkAll || d.delivered%oracleEvery == 0:
		if !l.check(d.expect[d.k].Data, f.Data) {
			d.corrupt++
		}
	}
	d.k++
	pkt.PutBuffer(f.Data)
}

func (d *datapath) sendBurst(l *lane) {
	b := d.burst[:]
	for i := range b {
		b[i] = netdev.Frame{Data: l.next()}
	}
	d.expect, d.k = b, 0
	d.sent += uint64(len(b))
	_, _ = l.tx.SendBatch(b) // a refused frame shows as sent-but-not-delivered
}

// sendOne injects one frame and returns Send call -> egress handler in ns.
func (d *datapath) sendOne(l *lane) (ns int64, end int64) {
	d.burst[0] = netdev.Frame{Data: l.next()}
	d.expect, d.k = d.burst[:1], 0
	d.sent++
	before := d.delivered
	t0 := nanotime()
	_ = l.tx.Send(d.burst[0])
	if d.delivered == before {
		return -1, nanotime() // lost: no latency sample, counted as failed
	}
	return d.egressAt - t0, d.egressAt
}

func (d *datapath) counts() (attempted, failed uint64) { return d.sent, d.failed() }

func (d *datapath) failed() uint64 { return d.sent - min(d.delivered, d.sent) + d.corrupt }

// warm sends n frames per lane one at a time with every output verified.
func (d *datapath) warm(n int) error {
	d.checkAll = true
	defer func() { d.checkAll = false }()
	for _, l := range d.lanes {
		for i := 0; i < n; i++ {
			d.sendOne(l)
		}
	}
	if f := d.failed(); f != 0 {
		return fmt.Errorf("%s: %d of %d warm-up frames lost or corrupted", d.workload, f, d.sent)
	}
	return nil
}

// window is one measurement window: half of it SendBatch bursts for
// throughput and allocation figures, half of it single timed frames.
type window struct {
	opsPerS, allocsPerOp, allocKBPerOp float64
	p50us, p90us                       float64
	ops, samples                       int
}

func (d *datapath) window(dur time.Duration) window {
	var w window
	half := int64(dur / 2)

	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	ops0 := d.delivered
	start := nanotime()
	end := start
	for i := 0; end-start < half; i++ {
		d.sendBurst(d.lanes[i%len(d.lanes)])
		end = nanotime()
	}
	runtime.ReadMemStats(&m1)
	w.ops = int(d.delivered - ops0)
	if w.ops > 0 {
		w.opsPerS = float64(w.ops) / (float64(end-start) / 1e9)
		w.allocsPerOp = float64(m1.Mallocs-m0.Mallocs) / float64(w.ops)
		w.allocKBPerOp = float64(m1.TotalAlloc-m0.TotalAlloc) / 1024 / float64(w.ops)
	}

	d.timed = true
	d.lat.reset()
	start = nanotime()
	end = start
	for i := 0; end-start < half; i++ {
		var ns int64
		ns, end = d.sendOne(d.lanes[(i/burstLen)%len(d.lanes)])
		if ns >= 0 {
			d.lat.add(ns)
		}
	}
	d.timed = false
	w.samples = int(d.lat.n)
	w.p50us = d.lat.percentile(0.50) / 1e3
	w.p90us = d.lat.percentile(0.90) / 1e3
	return w
}

func (d *datapath) cacheStats() un.CacheStats {
	var agg un.CacheStats
	for _, n := range d.nodes {
		cs := n.DatapathCacheStats()
		agg.Hits += cs.Hits
		agg.Misses += cs.Misses
		agg.Entries += cs.Entries
	}
	return agg
}

func (d *datapath) rxDropped() uint64 {
	var n uint64
	for _, l := range d.lanes {
		n += l.rx.Stats().RxDropped + l.tx.Stats().RxDropped
	}
	return n
}

func (d *datapath) close() {
	for i := len(d.cleanup) - 1; i >= 0; i-- {
		d.cleanup[i]()
	}
	for _, n := range d.nodes {
		n.Close()
	}
}

func roundRobin(frames [][]byte) func() []byte {
	i := 0
	return func() []byte {
		f := frames[i]
		if i++; i == len(frames) {
			i = 0
		}
		return f
	}
}

// addNode builds a default two-interface node, deploys g on it and returns
// the outward ends of its interfaces.
func (d *datapath) addNode(name string, g *un.Graph) (lan, wan *netdev.Port, err error) {
	n, err := un.NewNode(un.Config{Name: name})
	if err != nil {
		return nil, nil, err
	}
	d.nodes = append(d.nodes, n)
	lan, _ = n.InterfacePort("eth0")
	wan, _ = n.InterfacePort("eth1")
	return lan, wan, n.Deploy(g)
}

// fail abandons a half-built system.
func (d *datapath) fail(err error) (*datapath, error) {
	d.close()
	return nil, err
}

// ready installs the egress sinks and warms the system up with n verified
// frames per lane.
func (d *datapath) ready(n int) (*datapath, error) {
	d.attach()
	if err := d.warm(n); err != nil {
		return d.fail(err)
	}
	return d, nil
}

// ---------------------------------------------------------------- ipsec-tunnel

// samePacket is the ipsec-tunnel oracle: the IP packet that leaves the far
// LAN is byte-identical to the injected one (the tunnel ends re-frame it, so
// the Ethernet header is not compared).
func samePacket(sent, got []byte) bool {
	return len(got) > pkt.EthernetHeaderLen &&
		bytes.Equal(sent[pkt.EthernetHeaderLen:], got[pkt.EthernetHeaderLen:])
}

// setupIPsec puts two nodes back to back. patch cables their WAN sides:
// global.Patch, or the traced pass's own handler pair.
func setupIPsec(in *ipsecInputs, patch func(a, b *netdev.Port) func()) (*datapath, error) {
	d := &datapath{workload: "ipsec-tunnel"}
	var lan, wan [2]*netdev.Port
	for side, name := range []string{"A", "B"} {
		var err error
		if lan[side], wan[side], err = d.addNode(name, in.graphs[side]); err != nil {
			return d.fail(err)
		}
	}
	d.cleanup = append(d.cleanup, patch(wan[0], wan[1]))
	for side := 0; side < 2; side++ {
		d.lanes = append(d.lanes, &lane{
			tx: lan[side], rx: lan[1-side],
			next: roundRobin(in.lanes[side]), check: samePacket,
		})
	}
	return d.ready(4 * ipsecFlows)
}

// ----------------------------------------------------------------- chain-small

func setupChain(in *chainInputs) (*datapath, error) {
	d := &datapath{workload: "chain-small"}
	lan, wan, err := d.addNode("cpe", in.graph)
	if err != nil {
		return d.fail(err)
	}
	external := pkt.MustAddr(chainExternal)

	// Binding learning: the first packet of every flow makes the firewall
	// track it and the NAT bind an external port; the reply frame is built
	// from the port observed at the WAN side.
	var seen []byte
	wan.SetHandler(func(f netdev.Frame) {
		seen = append(seen[:0], f.Data...)
		pkt.PutBuffer(f.Data)
	})
	arena := newFrameArena(len(in.outbound), smallFrame)
	inbound := make([][]byte, 0, len(in.outbound))
	origin := make(map[*byte]flow, len(in.outbound)) // reply frame -> inside flow
	for i, f := range in.outbound {
		seen = seen[:0]
		_ = lan.Send(netdev.Frame{Data: f})
		back, err := returnFrame(seen)
		if err != nil {
			wan.SetHandler(nil)
			return d.fail(fmt.Errorf("chain-small: flow %d was not translated: %w", i, err))
		}
		back = arena.add(back)
		inbound = append(inbound, back)
		origin[&back[0]] = in.flows[i]
	}

	d.lanes = []*lane{
		{tx: lan, rx: wan, next: roundRobin(in.outbound), check: func(sent, got []byte) bool {
			s, _ := parseUDP(sent)
			g, err := parseUDP(got)
			return err == nil && g.src == external && g.dst == s.dst && g.dport == s.dport &&
				checksumsValid(got) && bytes.Equal(sent[udpHeaders:], got[udpHeaders:])
		}},
		{tx: wan, rx: lan, next: roundRobin(inbound), check: func(sent, got []byte) bool {
			want := origin[&sent[0]]
			g, err := parseUDP(got)
			return err == nil && g.dst == want.src && g.dport == want.sport && g.src == want.dst &&
				checksumsValid(got) && bytes.Equal(sent[udpHeaders:], got[udpHeaders:])
		}},
	}
	return d.ready(chainFlows)
}

// ------------------------------------------------------------------- fwd-flows

func setupFwd(in *fwdInputs) (*datapath, error) {
	d := &datapath{workload: "fwd-flows"}
	lan, wan, err := d.addNode("fwd", in.graph)
	if err != nil {
		return d.fail(err)
	}
	p := &fwdPicker{in: in}
	d.lanes = []*lane{{tx: lan, rx: wan, next: p.next, check: bytes.Equal}}
	// One pass over the schedule: every hot flow is cached and cold
	// traffic has filled the rest of both caches, so live_heap_mb counts
	// them full.
	return d.ready(fwdSchedule)
}
