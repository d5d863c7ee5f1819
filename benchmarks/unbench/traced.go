package main

import (
	"fmt"
	"math"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"slices"
	"strings"
	"time"

	un "repro"
	"repro/internal/netdev"
	"repro/internal/vswitch"
)

// tracedPlan sizes the traced pass from --seconds: a full-length run replays
// 20 000 ops (500 lifecycles) and times each rig 20 000 times; shorter runs
// scale down to the floor the self-test uses.
type tracedPlan struct {
	untraced       time.Duration // reference ops with the tracer off
	ops            int           // traced ops of a datapath workload
	lifecycles     int           // traced lifecycles when deploy-churn is the workload
	sideLifecycles int           // traced lifecycles when it is not (the rest/global/cluster span metrics)
	rounds         int           // timed calls per packet rig
}

func tracedPlanFor(seconds float64) tracedPlan {
	scale := min(max(seconds/20, 0.01), 1)
	n := func(full, floor int) int { return max(int(float64(full)*scale), floor) }
	return tracedPlan{
		untraced:       time.Duration(float64(2*time.Second) * scale),
		ops:            n(20000, 200),
		lifecycles:     n(500, 10),
		sideLifecycles: n(100, 5),
		rounds:         n(20000, 200),
	}
}

// tracedResult is one traced run of one workload.
type tracedResult struct {
	Workload  string             `json:"workload"`
	Seed      int64              `json:"seed"`
	Ops       int                `json:"traced_ops"`
	Spans     int                `json:"spans"`
	TraceFile string             `json:"trace_file"`
	Attempted uint64             `json:"attempted"`
	Failed    uint64             `json:"failed"`
	Metrics   map[string]float64 `json:"metrics"`
	// Modelled names the metrics that come from the cost model's virtual
	// clock, not from a measurement.
	Modelled []string `json:"modelled"`
}

// runTraced makes the traced pass of one workload: reference ops with the
// tracer off, the traced sample with layer replay, then every layer rig. It
// fills every per-layer metric; the end-to-end metrics are never taken here.
func runTraced(workload string, seed int64, seconds float64, outDir string, cal calibration) (*tracedResult, error) {
	p := tracedPlanFor(seconds)
	res := &tracedResult{Workload: workload, Seed: seed, Metrics: map[string]float64{},
		Modelled: []string{"execenv.mbps_sim"}}
	m := res.Metrics
	m["harness.timer_ns"], m["harness.null_send_ns"] = cal.timerNs, cal.nullSendNs

	in := &layerInputs{churn: genChurn(seed), chain: genChain(seed), ipsec: genIPsec(seed), rounds: p.rounds}
	tr := &tracer{}
	var err error
	switch workload {
	case "ipsec-tunnel":
		in.frames, in.graph = in.ipsec.lanes[0], in.ipsec.graphs[0]
		err = traceDatapath(workload, in, tr, p, cal, res, func() (*datapath, error) {
			return setupIPsec(in.ipsec, func(a, b *netdev.Port) func() {
				// The cable is the benchmark's: a span from its far
				// end to egress splits the encap node from the decap node.
				a.SetHandler(func(f netdev.Frame) { defer tr.child("cable", 0)(); _ = b.Send(f) })
				b.SetHandler(func(f netdev.Frame) { defer tr.child("cable", 0)(); _ = a.Send(f) })
				return func() { a.SetHandler(nil); b.SetHandler(nil) }
			})
		})
	case "chain-small":
		in.frames, in.graph = in.chain.outbound, in.chain.graph
		err = traceDatapath(workload, in, tr, p, cal, res, func() (*datapath, error) { return setupChain(in.chain) })
	case "fwd-flows":
		fwd := genFwd(seed)
		in.frames, in.graph = fwd.hot, fwd.graph
		err = traceDatapath(workload, in, tr, p, cal, res, func() (*datapath, error) { return setupFwd(fwd) })
	case "deploy-churn":
		in.frames, in.graph = in.churn.probe, in.churn.create
		err = traceChurn(in.churn, tr, p.untraced, p.lifecycles, res, true)
	default:
		err = fmt.Errorf("unbench: unknown workload %q (have %v)", workload, workloadNames)
	}
	if err != nil {
		return nil, err
	}
	res.Spans = len(tr.spans)
	res.TraceFile = filepath.Join(outDir, "trace-"+workload+".jsonl")
	if err := tr.write(res.TraceFile); err != nil {
		return nil, err
	}
	if workload != "deploy-churn" {
		// The deploy path's span metrics come from a short traced churn on
		// the same seed; its spans are not part of this workload's file.
		side := &tracedResult{Metrics: m}
		if err := traceChurn(in.churn, &tracer{}, 0, p.sideLifecycles, side, false); err != nil {
			return nil, err
		}
		res.Attempted += side.Attempted
		res.Failed += side.Failed
	}

	if err := measurePacketLayers(in, m); err != nil {
		return nil, err
	}
	if err := measureControlLayers(in, m); err != nil {
		return nil, err
	}
	return res, nil
}

// ------------------------------------------------------------- runtime reading

// runtimeReading brackets the untraced reference ops with the garbage
// collector's and the heap's counters (reading them is not tracing).
type runtimeReading struct {
	cycles        uint32
	pauses        [256]uint64
	gcCPU, allCPU float64
	heapAfterGC   uint64
	at            time.Time
}

func readRuntime() runtimeReading {
	var r runtimeReading
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	r.cycles, r.pauses, r.heapAfterGC, r.at = ms.NumGC, ms.PauseNs, ms.HeapAlloc, time.Now()
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(s)
	if s[0].Value.Kind() == metrics.KindFloat64 && s[1].Value.Kind() == metrics.KindFloat64 {
		r.gcCPU, r.allCPU = s[0].Value.Float64(), s[1].Value.Float64()
	}
	return r
}

// report writes the runtime.* metrics of the interval before..after, which
// held `ops` ops.
func (after runtimeReading) report(before runtimeReading, ops int, m map[string]float64) {
	wall := after.at.Sub(before.at).Seconds()
	// The closing reading forces one collection of its own; the opening
	// one is counted before its snapshot.
	cycles := int(after.cycles-before.cycles) - 1
	m["runtime.gc_cycles_per_s"], m["runtime.gc_pause_p99_us"] = 0, 0
	if wall > 0 && cycles > 0 {
		m["runtime.gc_cycles_per_s"] = float64(cycles) / wall
		n := min(cycles, len(after.pauses))
		ps := make([]uint32, 0, n)
		for i := 0; i < n; i++ {
			// PauseNs is a ring indexed by (NumGC+255)%256; skip the
			// forced collection at the end.
			idx := (int(after.cycles) - 2 - i + 2*len(after.pauses)) % len(after.pauses)
			ps = append(ps, uint32(min(after.pauses[idx], uint64(^uint32(0)))))
		}
		slices.Sort(ps)
		m["runtime.gc_pause_p99_us"] = percentileSorted(ps, 0.99) / 1e3
	}
	m["runtime.gc_cpu_fraction"] = 0
	if d := after.allCPU - before.allCPU; d > 0 {
		m["runtime.gc_cpu_fraction"] = (after.gcCPU - before.gcCPU) / d
	}
	m["runtime.heap_growth_kb_per_op"] = 0
	if ops > 0 {
		m["runtime.heap_growth_kb_per_op"] = (float64(after.heapAfterGC) - float64(before.heapAfterGC)) / 1024 / float64(ops)
	}
}

// crossings is how many switches one frame crossed: every crossing is one
// microflow-cache lookup (a hit or a miss) on some LSI of the node.
func crossings(before, after un.CacheStats, frames uint64) int {
	if frames == 0 {
		return 0
	}
	lookups := (after.Hits + after.Misses) - (before.Hits + before.Misses)
	return int(math.Round(float64(lookups) / float64(frames)))
}

func cacheReport(before, after un.CacheStats, m map[string]float64) {
	d := un.CacheStats{Hits: after.Hits - before.Hits, Misses: after.Misses - before.Misses}
	m["vswitch.cache_hit_ratio"] = d.HitRate()
	m["vswitch.cache_entries"] = float64(after.Entries)
}

// mbpsSim is the paper-fidelity throughput column: bits delivered over the
// time the cost model's virtual clock advanced. It is modelled, not
// measured; 0 when no NF charged the clock.
func mbpsSim(bytes uint64, virtual time.Duration) float64 {
	if virtual <= 0 {
		return 0
	}
	return float64(bytes) * 8 / virtual.Seconds() / 1e6
}

// virtualNow is the mean reading of the nodes' virtual clocks: in
// ipsec-tunnel each node handles every frame once (it encapsulates one
// direction and decapsulates the other), so one node's clock spans them all.
func virtualNow(nodes []*un.Node) time.Duration {
	var t time.Duration
	for _, n := range nodes {
		t += n.Clock().Now()
	}
	return t / time.Duration(len(nodes))
}

// ------------------------------------------------------------ datapath tracing

// replayer passes a sampled op's own frame through each layer the op
// crossed, in the layer's standalone rig, recording one child span per layer
// under the op's "replay" span. The rigs see every traced frame in order, so
// their caches and flow tables behave as the node's do (a cold fwd-flows
// frame misses in the rig as it missed in the node).
type replayer struct {
	tr              *tracer
	nullTx          *netdev.Port
	lsi0In, lsi0Out *switchRig // the node's LSI-0, crossed on the way in and out
	graph           *switchRig // the graph LSI, crossed once more than there are NFs
	nfs             *nfSet
	workload        string
	nodes, nfPerOp  int
	switches        int // switch crossings per op, counted on the node (see crossings)
	failed          int
}

func newReplayer(workload string, in *layerInputs, tr *tracer) (*replayer, error) {
	r := &replayer{tr: tr, workload: workload, nodes: 1}
	switch workload {
	case "ipsec-tunnel":
		r.nodes, r.nfPerOp = 2, 2
	case "chain-small":
		r.nfPerOp = 3
	}
	var rx *netdev.Port
	r.nullTx, rx = netdev.Veth("replay-tx", "replay-rx")
	rx.SetHandler(func(netdev.Frame) {})
	lsi0 := []*vswitch.FlowEntry{
		{Priority: 10, Cookie: rigCookie, Match: vswitch.MatchAll().WithInPort(1), Actions: []vswitch.Action{vswitch.Output(2)}},
		{Priority: 10, Cookie: rigCookie, Match: vswitch.MatchAll().WithInPort(2), Actions: []vswitch.Action{vswitch.Output(1)}},
	}
	var err error
	if r.lsi0In, err = newSwitchRig(vswitch.Options{}, lsi0); err != nil {
		return nil, err
	}
	if r.lsi0Out, err = newSwitchRig(vswitch.Options{}, lsi0); err != nil {
		return nil, err
	}
	if r.graph, err = newSwitchRig(vswitch.Options{}, rigEntries(in.graph)); err != nil {
		return nil, err
	}
	if r.nfs, err = newNFSet(in); err != nil {
		return nil, err
	}
	return r, nil
}

// plainSends is the port traversals of one op that are neither a switch's
// egress nor an NF's emission: the injection and the cables between nodes.
func (r *replayer) plainSends() int { return r.nodes }

// hops is the port traversals of one op. Frame.Hops cannot tell: a switch
// copies every frame it forwards into a fresh Frame, so the count restarts at
// each crossing.
func (r *replayer) hops() int { return r.switches + r.nfPerOp + r.plainSends() }

// replay re-runs one op layer by layer.
func (r *replayer) replay(lane int, frame []byte) {
	plain, switches := r.plainSends(), r.switches
	if switches < 2*r.nodes {
		r.failed++
		return
	}
	end := r.tr.top("replay")
	c := r.tr.child("netdev", plain)
	for i := 0; i < plain; i++ {
		_ = r.nullTx.Send(netdev.Frame{Data: frame})
	}
	c()
	c = r.tr.child("vswitch", switches)
	for n := 0; n < r.nodes; n++ {
		r.lsi0In.cross(frame)
		r.lsi0Out.cross(frame)
	}
	for i := 2 * r.nodes; i < switches; i++ {
		r.graph.cross(frame)
	}
	c()
	hop := func(name string, rig *nfRig, port int, f []byte) []byte {
		if f == nil {
			return nil
		}
		c := r.tr.child(name, 0)
		out := rig.through(port, f)
		c()
		if out == nil {
			r.failed++
		}
		return out
	}
	switch r.workload {
	case "ipsec-tunnel":
		hop("nf.ipsec_decap", r.nfs.decap, 1, hop("nf.ipsec_encap", r.nfs.encap, 0, frame))
	case "chain-small":
		if lane == 0 {
			hop("nf.monitor", r.nfs.mon, 0, hop("nf.nat_out", r.nfs.nat, 0, hop("nf.firewall", r.nfs.fw, 0, frame)))
		} else {
			hop("nf.firewall", r.nfs.fw, 1, hop("nf.nat_in", r.nfs.nat, 1, hop("nf.monitor", r.nfs.mon, 1, frame)))
		}
	}
	end()
}

// reference sends single frames with the tracer off for at least dur and
// min ops and returns their p50 in ns.
func (d *datapath) reference(dur time.Duration, minOps int) (p50 float64, ops int) {
	d.timed = true
	d.lat.reset()
	for i, start := 0, nanotime(); ; i++ {
		ns, end := d.sendOne(d.lanes[(i/burstLen)%len(d.lanes)])
		if ns >= 0 {
			d.lat.add(ns)
		}
		if time.Duration(end-start) >= dur && int(d.lat.n) >= minOps {
			break
		}
	}
	d.timed = false
	return d.lat.percentile(0.50), int(d.lat.n)
}

func traceDatapath(workload string, in *layerInputs, tr *tracer, p tracedPlan, cal calibration,
	res *tracedResult, setup func() (*datapath, error)) error {
	m := res.Metrics
	tr.off.Store(true)
	d, err := setup()
	if err != nil {
		return err
	}
	defer d.close()

	// Reference ops under the end-to-end run's conditions: same system,
	// tracer off, nothing of the traced pass on the heap yet.
	cache0, virt0, delivered0, sent0 := d.cacheStats(), virtualNow(d.nodes), d.delivered, d.sent
	rt0 := readRuntime()
	refP50, refOps := d.reference(p.untraced, min(p.ops, 1000))
	m["latency_p99_us"] = d.lat.percentile(0.99) / 1e3
	readRuntime().report(rt0, refOps, m)
	cache1 := d.cacheStats()
	cacheReport(cache0, cache1, m)
	m["execenv.mbps_sim"] = mbpsSim((d.delivered-delivered0)*uint64(len(in.frames[0])), virtualNow(d.nodes)-virt0)

	// The NAT rig is warmed with the workload's outbound frames in order, so
	// it binds the external ports the node's NAT bound: the node's reply
	// frames translate in the rig too.
	rp, err := newReplayer(workload, in, tr)
	if err != nil {
		return err
	}
	rp.switches = crossings(cache0, cache1, d.sent-sent0)
	// The span slab moves the collector's trigger point, so the tracing
	// overhead is taken against reference ops that already carry it.
	tr.reserve(p.ops * 8)
	slabP50, _ := d.reference(p.untraced/4, min(p.ops, 1000))

	// Traced ops, each followed by its layer replay.
	d.timed = true
	tr.off.Store(false)
	for i := 0; i < p.ops; i++ {
		laneIdx := (i / burstLen) % len(d.lanes)
		end := tr.root("e2e")
		ns, _ := d.sendOne(d.lanes[laneIdx])
		end()
		if ns < 0 {
			continue
		}
		rp.replay(laneIdx, d.burst[0].Data)
	}
	tr.off.Store(true)
	d.timed = false
	if rp.failed > 0 {
		return fmt.Errorf("%s: layer replay failed for %d of %d ops", workload, rp.failed, p.ops)
	}
	res.Ops = p.ops
	res.Attempted, res.Failed = d.counts()
	m["netdev.hops_per_pkt"] = float64(rp.hops())
	m["netdev.rx_dropped"] = float64(d.rxDropped())

	var e2e, ledger []int64
	for _, op := range tr.fold() {
		root, ok := op.tops["e2e"]
		if !ok {
			continue
		}
		e2e = append(e2e, root.End-root.Start)
		if _, ok := op.tops["replay"]; ok {
			var sum int64
			for _, ns := range op.cover["replay"] {
				sum += ns - int64(cal.timerNs) // each child span carries one timed interval's cost
			}
			ledger = append(ledger, sum)
		}
	}
	m["trace.overhead_ratio"] = median(e2e) / slabP50
	m["ledger.sum_ns"] = median(ledger)
	m["ledger.coverage"] = m["ledger.sum_ns"] / refP50
	return nil
}

// --------------------------------------------------------------- churn tracing

// traceChurn runs deploy-churn with every REST request a root span and the
// node and cluster RPCs beneath it as children. With primary set it is the
// workload under test: reference lifecycles run first with the tracer off,
// and the workload-level metrics (ledger, overhead, runtime, cache, hops)
// are reported too.
func traceChurn(in *churnInputs, tr *tracer, untraced time.Duration, lifecycles int,
	res *tracedResult, primary bool) error {
	m := res.Metrics
	tr.off.Store(true)
	c, err := setupChurn(in, tr)
	if err != nil {
		return err
	}
	defer c.close()
	reference := func(dur time.Duration, minOps int) (p50 float64, ops int) {
		c.lat.reset()
		for start := nanotime(); c.failedOps == 0; {
			if ns, ok := c.lifecycle(); ok {
				c.lat.add(ns)
			}
			if time.Duration(nanotime()-start) >= dur && int(c.lat.n) >= minOps {
				break
			}
		}
		return c.lat.percentile(0.50), int(c.lat.n)
	}
	var refP50, slabP50 float64
	if primary {
		nodes := make([]*un.Node, 0, len(c.fleet.nodes))
		for _, n := range c.fleet.nodes {
			nodes = append(nodes, n)
		}
		virt0 := virtualNow(nodes)
		c.probeCache = true
		rt0 := readRuntime()
		var refOps int
		refP50, refOps = reference(untraced, min(lifecycles, 20))
		m["latency_p99_us"] = c.lat.percentile(0.99) / 1e3
		readRuntime().report(rt0, refOps, m)
		c.probeCache = false
		cacheReport(un.CacheStats{}, c.probeStats, m)
		m["execenv.mbps_sim"] = mbpsSim(uint64(refOps*probeFrames*smallFrame), virtualNow(nodes)-virt0)
		// Port traversals of a probe frame: its switch crossings, one
		// emission per NF, the injection and the two trunk cables.
		m["netdev.hops_per_pkt"] = float64(crossings(un.CacheStats{}, c.probeStats, c.probedFrames) + churnNFs + len(trunks) + 1)
		m["netdev.rx_dropped"] = float64(c.fleet.lan.Stats().RxDropped + c.fleet.wan.Stats().RxDropped)
	}
	// As on the datapath: the overhead is taken against reference ops that
	// already carry the span slab.
	tr.reserve(lifecycles * 64)
	if primary {
		slabP50, _ = reference(untraced/4, min(lifecycles, 20))
	}

	// Layer replay of the create request: the body's own decode and
	// validation, and the placement the leader would compute for it.
	c.afterCreate = func() {
		end := tr.top("replay")
		s := tr.child("nffg.decode", 0)
		var g un.Graph
		_ = g.UnmarshalJSON(in.createBody)
		s()
		s = tr.child("nffg.validate", 0)
		_ = g.Validate()
		s()
		s = tr.child("global.plan", 0)
		_, _ = c.orchs[c.lead].PlanDeploy(&g)
		s()
		end()
	}
	tr.off.Store(false)
	seq0 := c.clus[c.lead].CommitSeq()
	before := c.attempted
	for i := 0; i < lifecycles; i++ {
		c.lifecycle()
	}
	done := int(c.attempted - before)
	seq1 := c.clus[c.lead].CommitSeq()
	tr.off.Store(true)
	c.afterCreate = nil
	res.Ops += done
	res.Attempted += c.attempted
	res.Failed += c.failedOps

	// Request kinds, their self time, and the RPCs beneath them.
	tr.settle()
	byKind := map[string][]int64{}
	var self []int64
	coverByChild := map[string][]int64{}
	var nodeRPC, clusterRPC []int64
	tr.mu.Lock()
	for _, s := range tr.spans {
		if s.Background || s.Parent == 0 {
			continue
		}
		switch {
		case strings.HasPrefix(s.Name, "node."):
			nodeRPC = append(nodeRPC, s.End-s.Start)
		case s.Name == "cluster.rpc":
			clusterRPC = append(clusterRPC, s.End-s.Start)
		}
	}
	tr.mu.Unlock()
	for _, op := range tr.fold() {
		for kind, root := range op.tops {
			if kind == "replay" {
				continue
			}
			byKind[kind] = append(byKind[kind], root.End-root.Start)
			if kind == "rest.create" {
				self = append(self, op.self[kind])
				for child, ns := range op.cover[kind] {
					coverByChild[child] = append(coverByChild[child], ns)
				}
			}
		}
	}
	for _, kind := range []string{"rest.create", "rest.get", "rest.placement", "rest.update", "rest.delete"} {
		m[kind+"_us"] = median(byKind[kind]) / 1e3
	}
	m["rest.self_us"] = median(self) / 1e3
	m["global.node_rpc_us"] = median(nodeRPC) / 1e3
	m["cluster.rpc_us"] = median(clusterRPC) / 1e3
	m["global.node_rpcs_per_op"], m["cluster.rpcs_per_op"], m["cluster.ops_per_lifecycle"] = 0, 0, 0
	if done > 0 {
		m["global.node_rpcs_per_op"] = float64(len(nodeRPC)) / float64(done)
		m["cluster.rpcs_per_op"] = float64(len(clusterRPC)) / float64(done)
		m["cluster.ops_per_lifecycle"] = float64(seq1-seq0) / float64(done)
	}
	if primary {
		// The create request rebuilt from its parts: its self time plus,
		// per kind of child, the wall time those children cover.
		sum := median(self)
		for _, ns := range coverByChild {
			sum += median(ns)
		}
		createP50 := median(byKind["rest.create"])
		m["ledger.sum_ns"] = sum
		m["ledger.coverage"] = sum / refP50
		m["trace.overhead_ratio"] = createP50 / slabP50
	}
	return nil
}
