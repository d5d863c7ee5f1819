package bench

import (
	"errors"
	"fmt"
	"runtime"
	"time"

	un "repro"
	"repro/internal/execenv"
	"repro/internal/netdev"
	"repro/internal/nf"
	"repro/internal/nnf"
	"repro/internal/telemetry"
)

// FirewallGraph builds one tenant's firewall chain over VLAN endpoints.
func FirewallGraph(id string, vlan uint16, tech un.Technology) *un.Graph {
	return &un.Graph{
		ID: id,
		NFs: []un.NF{{
			ID: "fw", Name: "firewall",
			Ports:                []un.NFPort{{ID: "0"}, {ID: "1"}},
			TechnologyPreference: tech,
			Config:               map[string]string{},
		}},
		Endpoints: []un.Endpoint{
			{ID: "in", Type: un.EPVLAN, Interface: "eth0", VLANID: vlan},
			{ID: "out", Type: un.EPVLAN, Interface: "eth1", VLANID: vlan},
		},
		Rules: []un.FlowRule{
			{ID: "r1", Priority: 10, Match: un.RuleMatch{PortIn: un.EndpointRef("in")},
				Actions: []un.RuleAction{{Type: un.ActOutput, Output: un.NFPortRef("fw", "0")}}},
			{ID: "r2", Priority: 10, Match: un.RuleMatch{PortIn: un.NFPortRef("fw", "1")},
				Actions: []un.RuleAction{{Type: un.ActOutput, Output: un.EndpointRef("out")}}},
			{ID: "r3", Priority: 10, Match: un.RuleMatch{PortIn: un.EndpointRef("out")},
				Actions: []un.RuleAction{{Type: un.ActOutput, Output: un.NFPortRef("fw", "1")}}},
			{ID: "r4", Priority: 10, Match: un.RuleMatch{PortIn: un.NFPortRef("fw", "0")},
				Actions: []un.RuleAction{{Type: un.ActOutput, Output: un.EndpointRef("in")}}},
		},
	}
}

// SharableResult compares N tenants on one shared native firewall against N
// exclusive Docker firewalls (experiment A1): the RAM and throughput the
// cost model gives, and the footprint each tenant measurably has here.
type SharableResult struct {
	Tenants           int
	SharedRAMMB       float64 // total NF RAM with one shared NNF
	ExclusiveRAMMB    float64 // total NF RAM with per-tenant containers
	SharedMbps        float64 // per-tenant throughput through the shared NNF
	ExclusiveMbps     float64 // per-tenant throughput with exclusive instances
	Shared, Exclusive Footprint
}

// Footprint is what one tenant of a node costs, measured: the heap it
// retains after two collections, and the goroutines it adds.
type Footprint struct {
	KB, Goroutines float64
}

// SharableNNF runs experiment A1.
func SharableNNF(tenants, packets int) (SharableResult, error) {
	res := SharableResult{Tenants: tenants}
	var err error
	if res.SharedRAMMB, res.SharedMbps, res.Shared, err = firewallTenants(un.TechNative, tenants, packets); err != nil {
		return res, err
	}
	res.ExclusiveRAMMB, res.ExclusiveMbps, res.Exclusive, err = firewallTenants(un.TechDocker, tenants, packets)
	return res, err
}

// firewallTenants deploys one firewall graph per tenant in the given
// technology on a fresh node and returns the NF RAM they hold in total, the
// modelled throughput of the first tenant's VLAN and each tenant's
// footprint.
func firewallTenants(tech un.Technology, tenants, packets int) (ramMB, mbps float64, fp Footprint, err error) {
	node, err := un.NewNode(un.Config{Name: "a1-" + string(tech)})
	if err != nil {
		return 0, 0, fp, err
	}
	defer node.Close()
	if fp, err = DeployTenants(node, tech, tenants); err != nil {
		return 0, 0, fp, err
	}
	for i := 0; i < tenants; i++ {
		ram, _ := node.InstanceRAM(fmt.Sprintf("tenant%d", i), "fw")
		// Every tenant of the native firewall reports the one shared
		// instance: count it once.
		if tech != un.TechNative || i == 0 {
			ramMB += float64(ram) / un.MB
		}
	}
	lan, _ := node.InterfacePort("eth0")
	wan, _ := node.InterfacePort("eth1")
	rep, err := Run(lan, wan, node.Clock(), Spec{
		Packets: packets, FrameSize: 1500, VLANID: 100,
	})
	return ramMB, rep.MbpsGoodput(), fp, err
}

// DeployTenants deploys tenants firewall graphs in the given technology on
// node, tenant i as graph "tenant<i>" on VLAN 100+i, and returns what each
// tenant after the first added to the process. The first pays what the
// node does once: the shared firewall a native tenant starts, the caches
// and pools a first deploy fills, and the node's event journal, grown to
// its full ring by a throwaway tenant deployed and removed until it is.
func DeployTenants(node *un.Node, tech un.Technology, tenants int) (Footprint, error) {
	var heap0 uint64
	var g0 int
	for i := 0; i < tenants; i++ {
		if err := node.Deploy(FirewallGraph(fmt.Sprintf("tenant%d", i), uint16(100+i), tech)); err != nil {
			return Footprint{}, err
		}
		if i == 0 {
			for len(node.Events()) < telemetry.DefaultJournalDepth {
				if err := errors.Join(node.Deploy(FirewallGraph("warm-up", uint16(100+tenants), tech)), node.Undeploy("warm-up")); err != nil {
					return Footprint{}, err
				}
			}
			heap0, g0 = retained()
		}
	}
	heap, g := retained()
	n := float64(tenants - 1)
	return Footprint{KB: (float64(heap) - float64(heap0)) / n / 1024, Goroutines: float64(g-g0) / n}, nil
}

// retained reads the live heap after two collections (the second frees
// what the first only unlinked) and the goroutine count.
func retained() (heap uint64, goroutines int) {
	var ms runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc, runtime.NumGoroutine()
}

// AdaptationResult compares a directly-attached two-port NF against the
// same NF behind the single-interface adaptation layer (experiment A2): wall
// time, which is weather, and heap allocations and bytes, which are exact.
type AdaptationResult struct {
	DirectNsPerPkt, DirectAllocsPerPkt, DirectBytesPerPkt    float64
	AdaptedNsPerPkt, AdaptedAllocsPerPkt, AdaptedBytesPerPkt float64
}

// AdaptationLayer runs experiment A2 on raw runtimes (no orchestrator), so
// the difference is purely the adapter's demux/retag work.
func AdaptationLayer(packets int) (AdaptationResult, error) {
	var res AdaptationResult

	run := func(rt *nf.Runtime, vlan uint16) (ns, allocs, bytes float64, err error) {
		// The loop drains after every send, so a short queue holds all
		// that is ever in flight. Keep it short: a 16 384-slot queue is
		// 512 KB, and the collection the harness's allocations start
		// would run into the adapted side's timed loop, charging it for
		// garbage that is not its own.
		tx := netdev.NewPortQueueLen("tx", 64)
		rx := netdev.NewPortQueueLen("rx", 64)
		single := rt.NumPorts() == 1
		if err := netdev.Connect(tx, rt.Port(0)); err != nil {
			return 0, 0, 0, err
		}
		if !single {
			if err := netdev.Connect(rx, rt.Port(1)); err != nil {
				return 0, 0, 0, err
			}
		}
		collect := rx
		if single {
			collect = tx
		}
		frame, err := Spec{FrameSize: 1500, VLANID: vlan}.Frame()
		if err != nil {
			return 0, 0, 0, err
		}
		var before, after runtime.MemStats
		start, got := time.Now(), 0
		for i := 0; i <= packets; i++ {
			if i == 1 {
				// Frame 0 makes the emission buffer and the port queue.
				runtime.ReadMemStats(&before)
				start, got = time.Now(), 0
			}
			if err := tx.Send(netdev.Frame{Data: frame}); err != nil {
				return 0, 0, 0, err
			}
			for {
				if _, ok := collect.TryRecv(); !ok {
					break
				}
				got++
			}
		}
		elapsed := time.Since(start)
		runtime.ReadMemStats(&after)
		if got == 0 {
			return 0, 0, 0, fmt.Errorf("bench: adaptation run forwarded nothing")
		}
		n := float64(got)
		return float64(elapsed.Nanoseconds()) / n, float64(after.Mallocs-before.Mallocs) / n,
			float64(after.TotalAlloc-before.TotalAlloc) / n, nil
	}

	model := execenv.Default()

	// Direct: plain two-port firewall.
	envD, err := execenv.New("direct", execenv.FlavorNative, model, nil)
	if err != nil {
		return res, err
	}
	direct := nf.NewRuntime("direct", nf.NewFirewall(), envD, 2)
	direct.Start()
	defer direct.Stop()
	res.DirectNsPerPkt, res.DirectAllocsPerPkt, res.DirectBytesPerPkt, err = run(direct, 0)
	if err != nil {
		return res, err
	}

	// Adapted: same firewall behind the adaptation layer, one mark path.
	fw := nf.NewFirewall()
	ad := nnf.NewAdapter(fw)
	if err := ad.AddPath(3000, nnf.AdapterPath{InnerPort: 0, EgressMarks: []uint16{3002, 3003}}); err != nil {
		return res, err
	}
	envA, err := execenv.New("adapted", execenv.FlavorNative, model, nil)
	if err != nil {
		return res, err
	}
	adapted := nf.NewRuntime("adapted", ad, envA, 1)
	adapted.Start()
	defer adapted.Stop()
	res.AdaptedNsPerPkt, res.AdaptedAllocsPerPkt, res.AdaptedBytesPerPkt, err = run(adapted, 3000)
	return res, err
}

// PathRow is one point of the kernel-vs-VM packet path sweep (A3).
type PathRow struct {
	FrameSize  int
	NativeMbps float64
	DockerMbps float64
	VMMbps     float64
	DPDKMbps   float64
}

// PacketPathSweep computes simulated throughput per frame size straight
// from the cost model (crypto over the whole frame, Table 1's workload).
func PacketPathSweep(sizes []int) []PathRow {
	m := execenv.Default()
	mbps := func(f execenv.Flavor, size int) float64 {
		cost := m.PacketCost(f, size, size)
		return float64(size) * 8 / cost.Seconds() / 1e6
	}
	rows := make([]PathRow, 0, len(sizes))
	for _, s := range sizes {
		rows = append(rows, PathRow{
			FrameSize:  s,
			NativeMbps: mbps(execenv.FlavorNative, s),
			DockerMbps: mbps(execenv.FlavorDocker, s),
			VMMbps:     mbps(execenv.FlavorVM, s),
			DPDKMbps:   mbps(execenv.FlavorDPDK, s),
		})
	}
	return rows
}

// StartupLatencies reports the simulated NF start latency per technology
// (A4), measured through a real deploy on a fresh node.
func StartupLatencies() (map[un.Technology]time.Duration, error) {
	out := make(map[un.Technology]time.Duration)
	for _, f := range Table1Flavors {
		node, err := un.NewNode(un.Config{Name: "a4"})
		if err != nil {
			return nil, err
		}
		before := node.Clock().Now()
		if err := node.Deploy(IPsecGraph("g", f.Tech)); err != nil {
			node.Close()
			return nil, err
		}
		out[f.Tech] = node.Clock().Now() - before
		node.Close()
	}
	return out, nil
}
