package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"slices"
	"sync/atomic"
	"time"

	un "repro"
	"repro/internal/cluster"
	"repro/internal/compute"
	"repro/internal/execenv"
	"repro/internal/global"
	"repro/internal/imagestore"
	"repro/internal/netdev"
	"repro/internal/netns"
	"repro/internal/nf"
	"repro/internal/nffg"
	"repro/internal/nnf"
	"repro/internal/openflow"
	"repro/internal/pkt"
	"repro/internal/repository"
	"repro/internal/resources"
	"repro/internal/vswitch"
)

// sampled is what one layer rig measured.
type sampled struct {
	p50ns  float64 // median time of one call
	allocs float64 // heap allocations of one call (median)
	kb     float64 // heap KB allocated by one call (median)
}

// Layer rigs: every layer of both paths measured from outside, through its
// public functions, on the workload's own frames (packet path) and on the
// seed's churn graph (deploy path). They run in the traced pass only; the
// end-to-end metrics never see them.

// rig is one measured call. before and after are untimed per-call steps
// (building the ESP frame a decapsulation needs, undoing a deploy); a rig
// with batch > 1 times that many calls per clock read and has neither.
type rig struct {
	before, run, after func(i int)
	batch              int
}

const allocProbeCalls = 128

// measure times the rig's call over `rounds` rounds and then counts its
// allocations over a short pass with the allocator's counters read around
// each single call (so untimed steps and other goroutines stay out of it).
func (r rig) measure(rounds int) sampled {
	batch := max(r.batch, 1)
	step := func(i int, timed bool) int64 {
		if r.before != nil {
			r.before(i)
		}
		var t0 int64
		if timed {
			t0 = nanotime()
		}
		for b := 0; b < batch; b++ {
			r.run(i*batch + b)
		}
		var d int64
		if timed {
			d = nanotime() - t0
		}
		if r.after != nil {
			r.after(i)
		}
		return d
	}
	warm := min(rounds/10+1, 500)
	for i := 0; i < warm; i++ {
		step(i, false)
	}
	ns := make([]uint32, 0, rounds)
	for i := 0; i < rounds; i++ {
		ns = append(ns, uint32(min(step(warm+i, true), int64(^uint32(0)))))
	}
	slices.Sort(ns)
	out := sampled{p50ns: percentileSorted(ns, 0.50) / float64(batch)}

	var m0, m1 runtime.MemStats
	n := min(allocProbeCalls, rounds)
	mallocs := make([]float64, 0, n)
	kbs := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		if r.before != nil {
			r.before(warm + rounds + i)
		}
		runtime.ReadMemStats(&m0)
		r.run((warm + rounds + i) * batch)
		runtime.ReadMemStats(&m1)
		if r.after != nil {
			r.after(warm + rounds + i)
		}
		mallocs = append(mallocs, float64(m1.Mallocs-m0.Mallocs))
		kbs = append(kbs, float64(m1.TotalAlloc-m0.TotalAlloc)/1024)
	}
	out.allocs, out.kb = median(mallocs), median(kbs)
	return out
}

// layerInputs is what the rigs are fed: frames of the workload under test,
// the rule table its graph LSI carries, and the seed's control-plane inputs.
type layerInputs struct {
	frames [][]byte     // the workload's (hot) frames
	graph  *un.Graph    // the workload's node graph: its rules load the switch rig
	churn  *churnInputs // deploy-path inputs of the same seed
	chain  *chainInputs // NF configurations of the same seed
	ipsec  *ipsecInputs
	rounds int // timed calls per packet rig; deploy-path rigs use rounds/50
}

func (in *layerInputs) frame(i int) []byte { return in.frames[i%len(in.frames)] }

// ------------------------------------------------------------------ switch rig

// switchRig is a standalone Switch between an injection port (1) and a
// sink port (2), loaded with a workload's rules.
type switchRig struct {
	sw   *vswitch.Switch
	sunk atomic.Uint64
}

const rigCookie = 0xbe

// rigEntries turns a graph's rules into the table of the switch rig: the
// L4 rules of a forwarding graph as they are, otherwise one in-port rule
// that forwards and the graph's remaining rules parked on other in-ports
// (a chain's LSI holds one in-port rule per hop; only one matches a frame).
func rigEntries(g *un.Graph) []*vswitch.FlowEntry {
	var out []*vswitch.FlowEntry
	for _, r := range g.Rules {
		if r.Match.L4Dst == 0 {
			continue
		}
		out = append(out, &vswitch.FlowEntry{
			Priority: r.Priority, Cookie: rigCookie,
			Match: vswitch.MatchAll().WithInPort(1).
				WithIPProto(pkt.IPProtocol(r.Match.IPProto)).WithL4Dst(r.Match.L4Dst),
			Actions: []vswitch.Action{vswitch.Output(2)},
		})
	}
	if len(out) > 0 {
		return out
	}
	out = append(out, &vswitch.FlowEntry{Priority: 10, Cookie: rigCookie,
		Match: vswitch.MatchAll().WithInPort(1), Actions: []vswitch.Action{vswitch.Output(2)}})
	for i := 1; i < len(g.Rules); i++ {
		out = append(out, &vswitch.FlowEntry{Priority: 10, Cookie: rigCookie,
			Match: vswitch.MatchAll().WithInPort(uint32(2 + i)), Actions: []vswitch.Action{vswitch.Output(1)}})
	}
	return out
}

func newSwitchRig(opts vswitch.Options, entries []*vswitch.FlowEntry) (*switchRig, error) {
	r := &switchRig{sw: vswitch.NewOptions("rig", 1, opts)}
	_, swIn := netdev.Veth("rig-in", "rig-sw-in")
	sink, swSink := netdev.Veth("rig-sink", "rig-sw-sink")
	if err := r.sw.AddPort(1, swIn); err != nil {
		return nil, err
	}
	if err := r.sw.AddPort(2, swSink); err != nil {
		return nil, err
	}
	sink.SetHandler(func(f netdev.Frame) {
		r.sunk.Add(1)
		pkt.PutBuffer(f.Data)
	})
	if _, err := r.sw.SwapFlows(rigCookie, entries); err != nil {
		return nil, err
	}
	return r, nil
}

// cross sends one frame through the switch and waits until it left (a
// worker-pool switch processes it on another goroutine).
func (r *switchRig) cross(frame []byte) {
	before := r.sunk.Load()
	r.sw.Inject(1, frame)
	for r.sunk.Load() == before {
		runtime.Gosched()
	}
}

// --------------------------------------------------------------------- NF rigs

// nfRig is one Processor behind a real nf.Runtime between two ports, as a
// compute driver would wire it; out is the last frame it emitted.
type nfRig struct {
	rt    *nf.Runtime
	ports [2]*netdev.Port
	out   []byte
}

func newNFRig(name string, config map[string]string) (*nfRig, error) {
	proc, err := nf.DefaultRegistry().Build(name, config)
	if err != nil {
		return nil, err
	}
	return newNFRigFor(name, proc)
}

func newNFRigFor(name string, proc nf.Processor) (*nfRig, error) {
	env, err := execenv.New("rig-"+name, execenv.FlavorNative, execenv.Default(), nil)
	if err != nil {
		return nil, err
	}
	r := &nfRig{rt: nf.NewRuntime("rig-"+name, proc, env, 2)}
	for i := range r.ports {
		r.ports[i] = netdev.NewPort(fmt.Sprintf("rig-%s-%d", name, i))
		if err := netdev.Connect(r.ports[i], r.rt.Port(i)); err != nil {
			return nil, err
		}
		r.ports[i].SetHandler(func(f netdev.Frame) { r.out = f.Data })
	}
	r.rt.Start()
	return r, nil
}

// through passes one frame into port `in` of the NF, runtime hop included,
// and returns what it emitted (nil when it dropped the frame).
func (r *nfRig) through(in int, frame []byte) []byte {
	r.out = nil
	_ = r.ports[in].Send(netdev.Frame{Data: frame})
	return r.out
}

// passThrough forwards every frame from port 0 to port 1 untouched.
type passThrough struct{}

func (passThrough) Process(inPort int, frame []byte) (nf.Result, error) {
	return nf.Result{Emissions: []nf.Emission{{Port: 1 - inPort, Frame: frame}}}, nil
}

// nfSet is the NF rigs the layer replay chains, warmed with the layer
// inputs' frames in order so that every flow has its firewall connection
// and the NAT binding the node's NAT gave it (ports are bound first come,
// first served).
type nfSet struct {
	encap, decap *nfRig // the two ends of an IPsec tunnel
	fw, nat, mon *nfRig
}

func nfConfig(g *un.Graph, id string) map[string]string { return g.FindNF(id).Config }

func newNFSet(in *layerInputs) (*nfSet, error) {
	s := &nfSet{}
	var err error
	build := func(dst **nfRig, name string, cfg map[string]string) {
		if err == nil {
			*dst, err = newNFRig(name, cfg)
		}
	}
	build(&s.encap, "ipsec", nfConfig(in.ipsec.graphs[0], "vpn"))
	build(&s.decap, "ipsec", nfConfig(in.ipsec.graphs[1], "vpn"))
	build(&s.fw, "firewall", nfConfig(in.chain.graph, "fw"))
	build(&s.nat, "nat", nfConfig(in.chain.graph, "nat"))
	build(&s.mon, "monitor", nil)
	if err != nil {
		return nil, err
	}
	for i, f := range in.frames {
		s.fw.through(0, f)
		if s.nat.through(0, f) == nil {
			return nil, fmt.Errorf("unbench: NAT rig did not translate frame %d", i)
		}
	}
	return s, nil
}

// ------------------------------------------------------------ packet-path rigs

// measurePacketLayers runs every packet-path rig on the layer inputs.
func measurePacketLayers(in *layerInputs, m map[string]float64) error {
	rounds := in.rounds
	put := func(name string, v float64) { m[name] = v }

	// netdev: one veth hop into a handler, per frame and per burst frame.
	tx, rx := netdev.Veth("rig-tx", "rig-rx")
	rx.SetHandler(func(netdev.Frame) {})
	rx.SetBatchHandler(func([]netdev.Frame) {})
	put("netdev.send_ns", rig{batch: 32, run: func(i int) { _ = tx.Send(netdev.Frame{Data: in.frame(i)}) }}.measure(rounds).p50ns)
	burst := make([]netdev.Frame, burstLen)
	put("netdev.sendbatch_ns_per_frame", rig{run: func(i int) {
		for k := range burst {
			burst[k] = netdev.Frame{Data: in.frame(i + k)}
		}
		_, _ = tx.SendBatch(burst)
	}}.measure(rounds).p50ns/burstLen)

	// vswitch: the workload's rule table, cache on, cache off, worker mode,
	// and the atomic table swap a graph update performs.
	entries := rigEntries(in.graph)
	sync, err := newSwitchRig(vswitch.Options{}, entries)
	if err != nil {
		return err
	}
	hit := rig{batch: 32, run: func(i int) { sync.cross(in.frame(i)) }}.measure(rounds)
	put("vswitch.hit_ns", hit.p50ns)
	put("vswitch.allocs_per_frame", hit.allocs)
	sync.sw.SetCacheEnabled(false)
	put("vswitch.miss_ns", rig{batch: 8, run: func(i int) { sync.cross(in.frame(i)) }}.measure(rounds/4).p50ns)
	sync.sw.SetCacheEnabled(true)
	put("vswitch.swapflows_us", rig{run: func(int) { _, _ = sync.sw.SwapFlows(rigCookie, entries) }}.measure(rounds/20).p50ns/1e3)
	pool, err := newSwitchRig(vswitch.Options{Workers: 1}, entries)
	if err != nil {
		return err
	}
	put("vswitch.workers1_hit_ns", rig{run: func(i int) { pool.cross(in.frame(i)) }}.measure(rounds/4).p50ns)
	pool.sw.Close()

	// pkt: decode and re-serialize the workload's frame as the NAT does,
	// and one round trip through the frame-buffer pool.
	dec := rig{batch: 8, run: func(i int) { sinkPacket = pkt.NewPacket(in.frame(i), pkt.LayerTypeEthernet, pkt.Default) }}.measure(rounds)
	put("pkt.decode_ns", dec.p50ns)
	put("pkt.decode_allocs", dec.allocs)
	ser := rig{batch: 8, run: func(i int) { sinkBytes = reserialize(in.frame(i)) }}.measure(rounds)
	put("pkt.serialize_ns", ser.p50ns)
	put("pkt.serialize_allocs", ser.allocs)
	put("pkt.serialize_kb", ser.kb)
	size := len(in.frames[0])
	put("pkt.pool_getput_ns", rig{batch: 32, run: func(int) { pkt.PutBuffer(pkt.GetBuffer(size)) }}.measure(rounds).p50ns)

	// nf: each Processor alone on the workload's frame, then the SA alone.
	procs := func(name string, cfg map[string]string) nf.Processor {
		p, perr := nf.DefaultRegistry().Build(name, cfg)
		if perr != nil && err == nil {
			err = perr
		}
		return p
	}
	encap := procs("ipsec", nfConfig(in.ipsec.graphs[0], "vpn"))
	decap := procs("ipsec", nfConfig(in.ipsec.graphs[1], "vpn"))
	fw := procs("firewall", nfConfig(in.chain.graph, "fw"))
	nat := procs("nat", nfConfig(in.chain.graph, "nat"))
	mon := procs("monitor", nil)
	if err != nil {
		return err
	}
	both := func(prefix string, s sampled) {
		put(prefix+"_ns", s.p50ns)
		put(prefix+"_allocs", s.allocs)
	}
	var esp []byte
	process := func(p nf.Processor, port int, frame []byte) []byte {
		res, perr := p.Process(port, frame)
		if perr != nil || len(res.Emissions) != 1 {
			if err == nil {
				err = fmt.Errorf("unbench: NF rig on port %d: %d emissions, error %v", port, len(res.Emissions), perr)
			}
			return nil
		}
		return res.Emissions[0].Frame
	}
	both("nf.ipsec_encap", rig{run: func(i int) { sinkBytes = process(encap, nf.IPsecPortPlain, in.frame(i)) }}.measure(rounds))
	both("nf.ipsec_decap", rig{
		before: func(i int) { esp = process(encap, nf.IPsecPortPlain, in.frame(i)) },
		run:    func(int) { sinkBytes = process(decap, nf.IPsecPortEncrypted, esp) },
	}.measure(rounds))
	natBack := make([][]byte, len(in.frames))
	for i, f := range in.frames {
		process(fw, 0, f)
		back, perr := returnFrame(process(nat, nf.NATPortInside, f))
		if perr != nil {
			return fmt.Errorf("unbench: NAT rig on frame %d: %w (%v)", i, perr, err)
		}
		natBack[i] = back
	}
	both("nf.nat_out", rig{run: func(i int) { sinkBytes = process(nat, nf.NATPortInside, in.frame(i)) }}.measure(rounds))
	both("nf.nat_in", rig{run: func(i int) { sinkBytes = process(nat, nf.NATPortOutside, natBack[i%len(natBack)]) }}.measure(rounds))
	both("nf.firewall", rig{run: func(i int) { sinkBytes = process(fw, 0, in.frame(i)) }}.measure(rounds))
	both("nf.monitor", rig{run: func(i int) { sinkBytes = process(mon, 0, in.frame(i)) }}.measure(rounds))
	if err != nil {
		return err
	}

	key, kerr := nf.ParseSAKey(nfConfig(in.ipsec.graphs[0], "vpn")["key"])
	if kerr != nil {
		return kerr
	}
	a, b := pkt.MustAddr("192.0.2.1"), pkt.MustAddr("203.0.113.9")
	saOut, e1 := nf.NewSA(4096, a, b, key)
	saIn, e2 := nf.NewSA(4096, b, a, key)
	if e1 != nil || e2 != nil {
		return fmt.Errorf("unbench: SA rig: %v %v", e1, e2)
	}
	inner := func(i int) []byte { return in.frame(i)[pkt.EthernetHeaderLen:] }
	put("nf.sa_seal_ns", rig{run: func(i int) { sinkBytes, _ = saOut.Encapsulate(inner(i)) }}.measure(rounds).p50ns)
	var outer []byte
	put("nf.sa_open_ns", rig{
		before: func(i int) { outer, _ = saOut.Encapsulate(inner(i)) },
		run:    func(int) { sinkBytes, _ = saIn.Decapsulate(outer) },
	}.measure(rounds).p50ns)
	pass, perr := newNFRigFor("pass", passThrough{})
	if perr != nil {
		return perr
	}
	put("nf.runtime_hop_ns", rig{batch: 8, run: func(i int) { pass.through(0, in.frame(i)) }}.measure(rounds).p50ns)

	// execenv: the per-packet flavour charge (the VM flavour copies for real).
	for _, fl := range []execenv.Flavor{execenv.FlavorNative, execenv.FlavorDocker, execenv.FlavorVM} {
		env, eerr := execenv.New("rig", fl, execenv.Default(), nil)
		if eerr != nil {
			return eerr
		}
		scratch := append([]byte(nil), in.frames[0]...)
		put("execenv.charge_"+string(fl)+"_ns", rig{batch: 32, run: func(int) { env.ProcessPacket(scratch, len(scratch)) }}.measure(rounds).p50ns)
	}
	return nil
}

// Results the compiler must not discard.
var (
	sinkPacket *pkt.Packet
	sinkBytes  []byte
)

// reserialize decodes a frame and builds it anew, layer by layer, with
// lengths and checksums recomputed: the serialisation every rewriting NF
// performs per packet.
func reserialize(frame []byte) []byte {
	p := pkt.NewPacket(frame, pkt.LayerTypeEthernet, pkt.NoCopy)
	eth, _ := p.Layer(pkt.LayerTypeEthernet).(*pkt.Ethernet)
	ip, _ := p.Layer(pkt.LayerTypeIPv4).(*pkt.IPv4)
	udp, _ := p.TransportLayer().(*pkt.UDP)
	if eth == nil || ip == nil || udp == nil {
		return nil
	}
	nip := &pkt.IPv4{TTL: ip.TTL, Protocol: ip.Protocol, SrcIP: ip.SrcIP, DstIP: ip.DstIP}
	nudp := &pkt.UDP{SrcPort: udp.SrcPort, DstPort: udp.DstPort}
	nudp.SetNetworkLayerForChecksum(nip)
	out, err := pkt.Serialize(pkt.SerializeOptions{FixLengths: true, ComputeChecksums: true},
		&pkt.Ethernet{SrcMAC: eth.SrcMAC, DstMAC: eth.DstMAC, EthernetType: pkt.EthernetTypeIPv4},
		nip, nudp, pkt.Payload(udp.LayerPayload()))
	if err != nil {
		return nil
	}
	return out
}

// ------------------------------------------------------------ deploy-path rigs

// controlRig is a standalone (non-HA) global orchestrator over its own line
// fleet: the deploy path without the intent log.
type controlRig struct {
	fleet *fleet
	orch  *global.Orchestrator
}

func newControlRig() (*controlRig, error) {
	f, err := newFleet()
	if err != nil {
		return nil, err
	}
	r := &controlRig{fleet: f, orch: global.New(global.Config{})}
	if err := f.register(r.orch, func(name string) global.Node {
		return global.NewLocalNode(name, f.nodes[name])
	}); err != nil {
		f.close()
		return nil, err
	}
	return r, nil
}

// measureControlLayers runs every deploy-path rig on the seed's churn graph.
func measureControlLayers(in *layerInputs, m map[string]float64) error {
	rounds := max(in.rounds/50, 20)
	put := func(name string, v float64) { m[name] = v }
	us := func(r rig, n int) float64 { return r.measure(n).p50ns / 1e3 }
	var err error
	keep := func(e error) {
		if e != nil && err == nil {
			err = e
		}
	}
	ch := in.churn

	// nffg: what the REST handler does to a PUT body before placing it.
	put("nffg.decode_us", us(rig{run: func(int) {
		var g nffg.Graph
		keep(json.Unmarshal(ch.createBody, &g))
	}}, rounds*4))
	put("nffg.validate_us", us(rig{run: func(int) { keep(ch.create.Validate()) }}, rounds*4))
	put("nffg.diff_us", us(rig{run: func(int) { sinkDiff = nffg.Compute(ch.create, ch.update) }}, rounds*4))

	// global: place, deploy, undeploy and reconcile without the intent log.
	ctl, cerr := newControlRig()
	if cerr != nil {
		return cerr
	}
	defer ctl.fleet.close()
	put("global.plan_us", us(rig{run: func(int) { _, e := ctl.orch.PlanDeploy(ch.create); keep(e) }}, rounds))
	put("global.deploy_us", us(rig{
		run:   func(int) { keep(ctl.orch.Deploy(ch.create)) },
		after: func(int) { keep(ctl.orch.Undeploy(churnGraphID)) },
	}, rounds))
	put("global.undeploy_us", us(rig{
		before: func(int) { keep(ctl.orch.Deploy(ch.create)) },
		run:    func(int) { keep(ctl.orch.Undeploy(churnGraphID)) },
	}, rounds))
	keep(ctl.orch.Deploy(ch.create))
	if err != nil {
		return err
	}
	put("global.reconcile_us", us(rig{run: func(int) { ctl.orch.ReconcileOnce() }}, rounds))

	// orchestrator: one node's share of the split graph, through the node
	// API and through the node's own REST handler.
	n1 := ctl.fleet.nodes["n1"]
	sub, ok := n1.GraphSpec(churnGraphID)
	if !ok {
		return fmt.Errorf("unbench: n1 holds no piece of %q", churnGraphID)
	}
	keep(ctl.orch.Undeploy(churnGraphID))
	subUpdated := sub.Clone()
	for i := range subUpdated.NFs {
		if subUpdated.NFs[i].Name == "firewall" {
			subUpdated.NFs[i].Config = ch.update.NFs[0].Config
		}
	}
	dep := rig{
		run:   func(int) { keep(n1.Deploy(sub)) },
		after: func(int) { keep(n1.Undeploy(sub.ID)) },
	}.measure(rounds)
	put("orchestrator.deploy_us", dep.p50ns/1e3)
	put("orchestrator.allocs_per_deploy", dep.allocs)
	put("orchestrator.undeploy_us", us(rig{
		before: func(int) { keep(n1.Deploy(sub)) },
		run:    func(int) { keep(n1.Undeploy(sub.ID)) },
	}, rounds))
	keep(n1.Deploy(sub))
	versions := [2]*un.Graph{subUpdated, sub}
	put("orchestrator.update_us", us(rig{run: func(i int) { keep(n1.Update(versions[i%2])) }}, rounds))
	put("telemetry.node_scrape_us", us(rig{run: func(int) { keep(n1.WriteMetrics(io.Discard)) }}, rounds))
	keep(n1.Undeploy(sub.ID))
	subBody, jerr := json.Marshal(sub)
	keep(jerr)
	nodeREST := func(method string, body []byte) {
		rec := httptest.NewRecorder()
		n1.Handler().ServeHTTP(rec, httptest.NewRequest(method, "/v1/graphs/"+sub.ID, bytes.NewReader(body)))
		if rec.Code/100 != 2 {
			keep(fmt.Errorf("unbench: node REST %s answered %d", method, rec.Code))
		}
	}
	put("rest.node_put_us", us(rig{
		run:   func(int) { nodeREST(http.MethodPut, subBody) },
		after: func(int) { nodeREST(http.MethodDelete, nil) },
	}, rounds))
	keep(ctl.orch.Deploy(ch.create))
	put("telemetry.fleet_scrape_us", us(rig{run: func(int) { keep(ctl.orch.WriteFleetMetrics(io.Discard)) }}, rounds))
	if err != nil {
		return err
	}

	// cluster: one graph-record-sized op proposed and quorum-committed on a
	// 3-replica in-process fabric.
	rec, rerr := measureClusterRecord(ch, rounds)
	if rerr != nil {
		return rerr
	}
	put("cluster.record_us", rec)

	// compute: one NF start per driver, with the node services a Node wires.
	if err := measureComputeStart(ch, rounds, m); err != nil {
		return err
	}

	// openflow: one flow-mod and its barrier over the control channel.
	sw := vswitch.New("rig-of", 7)
	ctrlSide, agentSide := net.Pipe()
	agent := openflow.NewAgent(sw, agentSide)
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = agent.Run()
	}()
	ctrl, oerr := openflow.Connect(ctrlSide)
	if oerr != nil {
		agent.Stop()
		<-done
		return oerr
	}
	put("openflow.flowmod_us", us(rig{
		run: func(i int) {
			keep(ctrl.InstallFlow(0, 10, rigCookie, vswitch.MatchAll().WithInPort(1).WithL4Dst(uint16(i)),
				[]vswitch.Action{vswitch.Output(2)}))
			keep(ctrl.Barrier())
		},
		after: func(i int) {
			if i%64 == 63 {
				keep(ctrl.DeleteFlows(rigCookie))
			}
		},
	}, rounds*4))
	_ = ctrl.Close()
	agent.Stop()
	<-done
	return err
}

var sinkDiff *nffg.Diff

func measureClusterRecord(ch *churnInputs, rounds int) (float64, error) {
	fabric := cluster.NewLocalNetwork()
	var peers []cluster.PeerSpec
	for i := 1; i <= churnReplicas; i++ {
		peers = append(peers, cluster.PeerSpec{ID: fmt.Sprintf("c%d", i)})
	}
	var clus []*cluster.Cluster
	defer func() {
		for _, c := range clus {
			c.Close()
		}
	}()
	for _, p := range peers {
		c, err := cluster.New(cluster.Options{ID: p.ID, ClusterID: "unbench-rig", Peers: peers, Transport: fabric.Transport(p.ID)})
		if err != nil {
			return 0, err
		}
		fabric.Register(p.ID, c)
		clus = append(clus, c)
	}
	for _, c := range clus {
		c.Start()
	}
	var lead *cluster.Cluster
	for deadline := time.Now().Add(30 * time.Second); lead == nil; time.Sleep(time.Millisecond) {
		for _, c := range clus {
			if c.IsLeader() {
				lead = c
			}
		}
		if lead == nil && time.Now().After(deadline) {
			return 0, fmt.Errorf("unbench: cluster rig elected no leader")
		}
	}
	// A graph intent record carries the desired graph and its partition:
	// about three times the PUT body.
	payload, err := json.Marshal(map[string]json.RawMessage{
		"desired": ch.createBody, "a": ch.createBody, "b": ch.updateBody})
	if err != nil {
		return 0, err
	}
	var rerr error
	v := rig{run: func(i int) {
		if e := lead.Record("deploy", fmt.Sprintf("g%d", i%8), payload); e != nil && rerr == nil {
			rerr = e
		}
	}}.measure(rounds*4).p50ns / 1e3
	return v, rerr
}

func measureComputeStart(ch *churnInputs, rounds int, m map[string]float64) error {
	store := imagestore.NewStore()
	if err := repository.DefaultImages(store); err != nil {
		return err
	}
	pool := resources.NewPool(16000, 8*un.GB)
	for _, c := range []string{"docker", "nnf:firewall"} {
		pool.AddCapability(resources.Capability(c))
	}
	model := execenv.Default()
	clock := &execenv.VirtualClock{}
	deps := compute.Deps{NFs: nf.DefaultRegistry(), Images: store, Resources: pool, Model: model, Clock: clock}
	docker, err := compute.NewDockerDriver(deps)
	if err != nil {
		return err
	}
	native, err := compute.NewNativeDriver(deps, nnf.NewManager(nnf.Builtins(), netns.NewRegistry(), model, clock))
	if err != nil {
		return err
	}
	tpl, ok := repository.Default().Lookup("firewall")
	if !ok {
		return fmt.Errorf("unbench: no firewall template")
	}
	for _, d := range []struct {
		name string
		drv  compute.Driver
	}{{"compute.start_native_us", native}, {"compute.start_docker_us", docker}} {
		name, drv := d.name, d.drv
		var inst *compute.Instance
		var serr error
		m[name] = rig{
			run: func(i int) {
				var e error
				inst, e = drv.Start(compute.StartRequest{
					InstanceName: fmt.Sprintf("rig.fw%d", i), GraphID: "rig",
					Template: tpl, Config: ch.create.NFs[0].Config,
				})
				if e != nil && serr == nil {
					serr = e
				}
			},
			after: func(int) {
				if inst != nil {
					_ = drv.Stop(inst)
					inst = nil
				}
			},
		}.measure(rounds*4).p50ns / 1e3
		if serr != nil {
			return serr
		}
	}
	return nil
}
