package orchestrator

import (
	"fmt"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/compute"
	"repro/internal/execenv"
	"repro/internal/imagestore"
	"repro/internal/netdev"
	"repro/internal/nf"
	"repro/internal/nffg"
	"repro/internal/repository"
	"repro/internal/resources"
	"repro/internal/telemetry"
)

// slowStart is a compute driver whose Start first spends boot of wall
// time, as real provisioning would.
type slowStart struct {
	compute.Driver
	boot time.Duration
}

func (d slowStart) Start(req compute.StartRequest) (*compute.Instance, error) {
	time.Sleep(d.boot)
	return d.Driver.Start(req)
}

// buildNode assembles a node like newNode but with an explicit
// parallel-start bound and a docker driver that takes dockerBoot of wall
// time per start, for scheduling-latency tests.
func buildNode(t *testing.T, maxParallel int, dockerBoot time.Duration) *Orchestrator {
	t.Helper()
	store := imagestore.NewStore()
	if err := repository.DefaultImages(store); err != nil {
		t.Fatal(err)
	}
	pool := resources.NewPool(64000, 32*gb)
	for _, c := range []resources.Capability{"docker"} {
		pool.AddCapability(c)
	}
	deps := compute.Deps{
		NFs:       nf.DefaultRegistry(),
		Images:    store,
		Resources: pool,
		Model:     execenv.Default(),
	}
	cmgr := compute.NewManager()
	docker, err := compute.NewDockerDriver(deps)
	if err != nil {
		t.Fatal(err)
	}
	if err := cmgr.Register(slowStart{docker, dockerBoot}); err != nil {
		t.Fatal(err)
	}
	o, err := New(Config{
		NodeName:          "cpe",
		Interfaces:        []string{"eth0", "eth1"},
		Resources:         pool,
		Repo:              repository.Default(),
		Compute:           cmgr,
		MaxParallelStarts: maxParallel,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(o.Close)
	return o
}

// chainGraph builds eth0 -> nf1 -> ... -> nfN -> eth1 with every NF pinned
// to the given technology.
func fwChainGraph(id string, n int, tech nffg.Technology) *nffg.Graph {
	g := &nffg.Graph{
		ID: id,
		Endpoints: []nffg.Endpoint{
			{ID: "in", Type: nffg.EPInterface, Interface: "eth0"},
			{ID: "out", Type: nffg.EPInterface, Interface: "eth1"},
		},
	}
	for i := 0; i < n; i++ {
		g.NFs = append(g.NFs, nffg.NF{
			ID: fmt.Sprintf("fw%d", i), Name: "firewall",
			Ports:                []nffg.NFPort{{ID: "0"}, {ID: "1"}},
			TechnologyPreference: tech,
		})
	}
	prev := nffg.EndpointRef("in")
	for i := 0; i < n; i++ {
		g.Rules = append(g.Rules, nffg.FlowRule{
			ID: fmt.Sprintf("r%d", i), Priority: 10,
			Match:   nffg.RuleMatch{PortIn: prev},
			Actions: []nffg.RuleAction{{Type: nffg.ActOutput, Output: nffg.NFPortRef(g.NFs[i].ID, "0")}},
		})
		prev = nffg.NFPortRef(g.NFs[i].ID, "1")
	}
	g.Rules = append(g.Rules, nffg.FlowRule{
		ID: "r-out", Priority: 10,
		Match:   nffg.RuleMatch{PortIn: prev},
		Actions: []nffg.RuleAction{{Type: nffg.ActOutput, Output: nffg.EndpointRef("out")}},
	})
	return g
}

// TestUpdateRollsBackStartedNFs is the regression test for the seed's
// update leak: an NF started by a failing update (here: the endpoint added
// after it references a missing interface) must not stay attached while
// d.Graph keeps the old spec.
func TestUpdateRollsBackStartedNFs(t *testing.T) {
	o := newNode(t)
	if err := o.Deploy(ipsecGraph("g1", nffg.TechNative)); err != nil {
		t.Fatal(err)
	}
	usedCPU0, _, usedRAM0, _ := o.Usage()

	upd := ipsecGraph("g1", nffg.TechNative)
	upd.NFs = append(upd.NFs, nffg.NF{
		ID: "mon", Name: "monitor",
		Ports:                []nffg.NFPort{{ID: "0"}, {ID: "1"}},
		TechnologyPreference: nffg.TechNative,
	})
	upd.Endpoints = append(upd.Endpoints, nffg.Endpoint{
		ID: "side", Type: nffg.EPInterface, Interface: "eth9", // not on the node
	})
	if err := o.Update(upd); err == nil {
		t.Fatal("update with unknown endpoint interface accepted")
	}
	d, _ := o.Graph("g1")
	if len(d.Instances()) != 1 {
		t.Fatalf("failed update leaked NFs: instances = %v", d.Instances())
	}
	if _, leaked := d.Instances()["mon"]; leaked {
		t.Fatal("NF started by the failed update still attached")
	}
	usedCPU, _, usedRAM, _ := o.Usage()
	if usedCPU != usedCPU0 || usedRAM != usedRAM0 {
		t.Fatalf("failed update leaked resources: cpu %d->%d ram %d->%d",
			usedCPU0, usedCPU, usedRAM0, usedRAM)
	}
	// The deployed spec still is the old one and the chain still forwards.
	if spec, _ := o.Spec("g1"); len(spec.NFs) != 1 {
		t.Fatalf("spec mutated by failed update: %d NFs", len(spec.NFs))
	}
	send(t, o, "eth0", clearFrame(t))
	if _, ok := recv(t, o, "eth1"); !ok {
		t.Error("original service broken by rolled-back update")
	}
}

// TestUpdateRollsBackOnStartFailure: one of two added NFs fails during the
// concurrent start phase; the sibling that did start must be stopped, not
// half-deployed.
func TestUpdateRollsBackOnStartFailure(t *testing.T) {
	o := newNode(t)
	if err := o.Deploy(ipsecGraph("g1", nffg.TechNative)); err != nil {
		t.Fatal(err)
	}
	usedCPU0, _, usedRAM0, _ := o.Usage()
	upd := ipsecGraph("g1", nffg.TechNative)
	upd.NFs = append(upd.NFs,
		nffg.NF{ID: "mon", Name: "monitor",
			Ports: []nffg.NFPort{{ID: "0"}, {ID: "1"}}, TechnologyPreference: nffg.TechNative},
		nffg.NF{ID: "broken", Name: "ipsec",
			Ports:                []nffg.NFPort{{ID: "0"}, {ID: "1"}},
			TechnologyPreference: nffg.TechDocker,
			Config:               map[string]string{"local": "not-an-ip"}},
	)
	if err := o.Update(upd); err == nil {
		t.Fatal("update with broken NF accepted")
	}
	d, _ := o.Graph("g1")
	if len(d.Instances()) != 1 {
		t.Fatalf("start-phase failure leaked NFs: %v", d.Instances())
	}
	usedCPU, _, usedRAM, _ := o.Usage()
	if usedCPU != usedCPU0 || usedRAM != usedRAM0 {
		t.Fatalf("start-phase failure leaked resources: cpu %d->%d ram %d->%d",
			usedCPU0, usedCPU, usedRAM0, usedRAM)
	}
}

// journalDetails collects the details of all journal events of one type.
func journalDetails(o *Orchestrator, typ string) []string {
	var out []string
	for _, ev := range o.Events() {
		if ev.Type == typ {
			out = append(out, ev.Detail)
		}
	}
	return out
}

// TestUpdateConfigRestartFallback: the ipsec processor does not implement
// Configure, so a config-only change must stop and restart the instance
// with the new configuration instead of silently leaving stale config
// running — and journal that it took the restart path.
func TestUpdateConfigRestartFallback(t *testing.T) {
	o := newNode(t)
	if err := o.Deploy(ipsecGraph("g1", nffg.TechVM)); err != nil {
		t.Fatal(err)
	}
	upd := ipsecGraph("g1", nffg.TechVM)
	upd.NFs[0].Config["spi"] = "8192"
	if err := o.Update(upd); err != nil {
		t.Fatal(err)
	}
	details := journalDetails(o, telemetry.EventNFConfig)
	if len(details) != 1 || !strings.Contains(details[0], "restarted") {
		t.Fatalf("expected a restart journal entry, got %v", details)
	}
	// The new SPI is live on the wire: ESP puts it in the first 4 bytes
	// after the IP header.
	send(t, o, "eth0", clearFrame(t))
	wire, ok := recv(t, o, "eth1")
	if !ok {
		t.Fatal("chain broken after config restart")
	}
	if spi := fmt.Sprintf("%x", wire[14+20:14+24]); spi != "00002000" {
		t.Fatalf("wire SPI %s, want 00002000 (8192)", spi)
	}
	if spec, _ := o.Spec("g1"); spec.NFs[0].Config["spi"] != "8192" {
		t.Fatal("deployed spec not updated")
	}
}

// TestUpdateRestartFailureRestoresPreviousConfig: when the restart path
// cannot start the new-config instance, the previous spec's instance is
// reinstated so the graph keeps forwarding instead of being left with a
// hole its steering still points into.
func TestUpdateRestartFailureRestoresPreviousConfig(t *testing.T) {
	o := newNode(t)
	if err := o.Deploy(ipsecGraph("g1", nffg.TechVM)); err != nil {
		t.Fatal(err)
	}
	upd := ipsecGraph("g1", nffg.TechVM)
	upd.NFs[0].Config["key"] = "zz" // invalid hex: the new instance cannot build
	if err := o.Update(upd); err == nil {
		t.Fatal("update with un-startable config accepted")
	}
	d, _ := o.Graph("g1")
	inst, present := d.Instances()["vpn"]
	if !present {
		t.Fatal("NF lost after failed config restart")
	}
	if inst.Technology != nffg.TechVM {
		t.Fatalf("restored instance runs %s, want vm", inst.Technology)
	}
	restored := false
	for _, detail := range journalDetails(o, telemetry.EventNFConfig) {
		if strings.Contains(detail, "restored to previous config") {
			restored = true
		}
	}
	if !restored {
		t.Fatalf("recovery not journaled: %v", journalDetails(o, telemetry.EventNFConfig))
	}
	// The old-config chain still forwards end to end.
	send(t, o, "eth0", clearFrame(t))
	if _, ok := recv(t, o, "eth1"); !ok {
		t.Error("chain broken after restart recovery")
	}
}

// TestUpdateConfigInPlace: the firewall processor implements Configure, so
// a config change applies without a restart and journals the in-place path.
func TestUpdateConfigInPlace(t *testing.T) {
	o := newNode(t)
	g := firewallGraph("g1", 100, "")
	g.NFs[0].TechnologyPreference = nffg.TechDocker // private instance: reconfigurable in place
	if err := o.Deploy(g); err != nil {
		t.Fatal(err)
	}
	send(t, o, "eth0", vlanFrame(t, 100, 53))
	if _, ok := recv(t, o, "eth1"); !ok {
		t.Fatal("pre-update DNS should pass")
	}
	upd := firewallGraph("g1", 100, "drop proto=udp dport=53")
	upd.NFs[0].TechnologyPreference = nffg.TechDocker
	if err := o.Update(upd); err != nil {
		t.Fatal(err)
	}
	details := journalDetails(o, telemetry.EventNFConfig)
	if len(details) != 1 || !strings.Contains(details[0], "reconfigured in place") {
		t.Fatalf("expected an in-place journal entry, got %v", details)
	}
	send(t, o, "eth0", vlanFrame(t, 100, 53))
	if _, ok := recv(t, o, "eth1"); ok {
		t.Fatal("new firewall config not active after in-place reconfigure")
	}
}

// TestSharedNNFReconfiguredInPlace: two graphs share the native firewall, and
// graph A's rules change. The NNF manager's update verb re-programs A's mark
// paths only: A's verdicts change, B's do not, the instance keeps its name
// and both graphs keep their marks, nothing stops or starts, and a stream
// through A mid-update loses nothing. An NF with no update path (the monitor)
// is still restarted.
func TestSharedNNFReconfiguredInPlace(t *testing.T) {
	o := newNode(t)
	if err := o.Deploy(firewallGraph("gA", 100, "")); err != nil {
		t.Fatal(err)
	}
	if err := o.Deploy(firewallGraph("gB", 200, "drop proto=udp dport=53")); err != nil {
		t.Fatal(err)
	}
	instance := func(id string) compute.Instance {
		d, _ := o.Graph(id)
		return *d.Instances()["fw"]
	}
	instA, instB := instance("gA"), instance("gB")
	if !instA.Shared || instA.Runtime != instB.Runtime {
		t.Fatal("firewall not deployed as one shared NNF")
	}
	lifecycle := func() int {
		return len(journalDetails(o, telemetry.EventNFStart)) + len(journalDetails(o, telemetry.EventNFStop))
	}
	starts, lsi0Flows := lifecycle(), len(o.LSI0().Flows())

	lan, _ := o.InterfacePort("eth0")
	wan, _ := o.InterfacePort("eth1")
	var received atomic.Uint64
	wan.SetHandler(func(netdev.Frame) { received.Add(1) })
	const frames = 3000
	var sent atomic.Uint64
	var wg sync.WaitGroup
	wg.Add(1)
	allowed := vlanFrame(t, 100, 80)
	go func() {
		defer wg.Done()
		for i := 0; i < frames; i++ {
			if err := lan.Send(netdev.Frame{Data: allowed}); err == nil {
				sent.Add(1)
			}
		}
	}()
	for received.Load() < frames/10 {
		time.Sleep(time.Millisecond)
	}
	if err := o.Update(firewallGraph("gA", 100, "drop proto=udp dport=53")); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	wan.SetHandler(nil)
	if sent.Load() != frames || received.Load() != frames {
		t.Fatalf("sent %d forwarded %d across the update, want %d/%d", sent.Load(), received.Load(), frames, frames)
	}

	for _, c := range []struct {
		vlan, dport uint16
		pass        bool
	}{{100, 53, false}, {100, 80, true}, {200, 53, false}, {200, 80, true}} {
		send(t, o, "eth0", vlanFrame(t, c.vlan, c.dport))
		if _, got := recv(t, o, "eth1"); got != c.pass {
			t.Errorf("VLAN %d dport %d: forwarded %v, want %v", c.vlan, c.dport, got, c.pass)
		}
	}
	nowA, nowB := instance("gA"), instance("gB")
	if nowA.Name != instA.Name || nowA.Runtime != instA.Runtime ||
		!slices.Equal(nowA.InMarks, instA.InMarks) || !slices.Equal(nowA.OutMarks, instA.OutMarks) {
		t.Errorf("graph A's attachment changed: %+v -> %+v", instA, nowA)
	}
	if nowB.Name != instB.Name || !slices.Equal(nowB.InMarks, instB.InMarks) || !slices.Equal(nowB.OutMarks, instB.OutMarks) {
		t.Errorf("graph B's attachment changed: %+v -> %+v", instB, nowB)
	}
	if got := len(o.LSI0().Flows()); got != lsi0Flows {
		t.Errorf("LSI-0 flows %d -> %d across an in-place update", lsi0Flows, got)
	}
	if got := lifecycle(); got != starts {
		t.Errorf("%d nf-start/nf-stop events during an in-place update", got-starts)
	}
	if details := journalDetails(o, telemetry.EventNFConfig); len(details) != 1 || !strings.Contains(details[0], "fw reconfigured in place") {
		t.Fatalf("config journal = %v, want one in-place entry", details)
	}

	// The monitor has no update path: its config change is a restart.
	mon := func(label string) *nffg.Graph {
		g := firewallGraph("gM", 300, "")
		g.NFs[0].Name, g.NFs[0].Config = "monitor", map[string]string{"label": label}
		return g
	}
	if err := o.Deploy(mon("a")); err != nil {
		t.Fatal(err)
	}
	starts = lifecycle()
	if err := o.Update(mon("b")); err != nil {
		t.Fatal(err)
	}
	if got := lifecycle(); got != starts+2 {
		t.Errorf("monitor update: %d nf-start/nf-stop events, want a stop and a start", got-starts)
	}
	if details := journalDetails(o, telemetry.EventNFConfig); !strings.Contains(details[len(details)-1], "fw restarted") {
		t.Errorf("config journal = %v, want the monitor restarted", details)
	}
}

// TestScheduleFallbackOnAvailabilityFlip: the native flavor is available at
// Deploy but its capability disappears before Update adds a second NF — the
// scheduler must downgrade the new NF to the next flavor in the ranking
// instead of failing or reusing the stale decision.
func TestScheduleFallbackOnAvailabilityFlip(t *testing.T) {
	o := newNode(t)
	g := fwChainGraph("g1", 1, nffg.TechAny)
	if err := o.Deploy(g); err != nil {
		t.Fatal(err)
	}
	d, _ := o.Graph("g1")
	if tech := d.Instances()["fw0"].Technology; tech != nffg.TechNative {
		t.Fatalf("fw0 deployed as %s, want native", tech)
	}
	// The capability flips away between Deploy and Update.
	o.cfg.Resources.RemoveCapability("nnf:firewall")
	upd := fwChainGraph("g1", 2, nffg.TechAny)
	if err := o.Update(upd); err != nil {
		t.Fatal(err)
	}
	d, _ = o.Graph("g1")
	if tech := d.Instances()["fw1"].Technology; tech != nffg.TechDocker {
		t.Fatalf("fw1 scheduled as %s, want docker (native capability gone)", tech)
	}
	// The NF deployed before the flip keeps running native.
	if tech := d.Instances()["fw0"].Technology; tech != nffg.TechNative {
		t.Fatalf("fw0 disturbed by availability flip: now %s", tech)
	}
}

// TestReflavorZeroLoss drives continuous traffic through the IPsec CPE
// graph while the vpn NF hot-swaps VM -> native, and asserts with the
// per-LSI drop counters that the make-before-break switchover forwarded
// every single frame.
func TestReflavorZeroLoss(t *testing.T) {
	o := newNode(t)
	if err := o.Deploy(ipsecGraph("g1", nffg.TechVM)); err != nil {
		t.Fatal(err)
	}
	lan, _ := o.InterfacePort("eth0")
	wan, _ := o.InterfacePort("eth1")
	var received atomic.Uint64
	wan.SetHandler(func(netdev.Frame) { received.Add(1) })
	defer wan.SetHandler(nil)

	const frames = 3000
	var sent atomic.Uint64
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		data := clearFrame(t)
		for i := 0; i < frames; i++ {
			if err := lan.Send(netdev.Frame{Data: data}); err == nil {
				sent.Add(1)
			}
		}
	}()
	// Wait until the stream is demonstrably mid-flight, then swap.
	for received.Load() < frames/10 {
		time.Sleep(time.Millisecond)
	}
	if err := o.Reflavor("g1", "vpn", nffg.TechNative); err != nil {
		t.Fatal(err)
	}
	wg.Wait()

	if sent.Load() != frames || received.Load() != frames {
		t.Fatalf("sent %d received %d, want %d/%d", sent.Load(), received.Load(), frames, frames)
	}
	d, _ := o.Graph("g1")
	if drops := d.LSI().Telemetry().Drops; drops != 0 {
		t.Fatalf("graph LSI dropped %d frames during the hot-swap", drops)
	}
	if drops := o.LSI0().Telemetry().Drops; drops != 0 {
		t.Fatalf("LSI-0 dropped %d frames during the hot-swap", drops)
	}
	if tech := d.Instances()["vpn"].Technology; tech != nffg.TechNative {
		t.Fatalf("vpn still %s after reflavor", tech)
	}
	// And the swapped-to flavor keeps forwarding.
	pre := received.Load()
	send(t, o, "eth0", clearFrame(t))
	if received.Load() != pre+1 {
		t.Fatal("native flavor not forwarding after swap")
	}
}

func TestReflavorErrors(t *testing.T) {
	o := newNode(t)
	if err := o.Deploy(ipsecGraph("g1", nffg.TechVM)); err != nil {
		t.Fatal(err)
	}
	if err := o.Reflavor("ghost", "vpn", nffg.TechNative); err == nil {
		t.Error("reflavor of unknown graph accepted")
	}
	if err := o.Reflavor("g1", "ghost", nffg.TechNative); err == nil {
		t.Error("reflavor of unknown NF accepted")
	}
	if err := o.Reflavor("g1", "vpn", "balloon"); err == nil {
		t.Error("reflavor to unknown technology accepted")
	}
	if err := o.Reflavor("g1", "vpn", nffg.TechAny); err == nil {
		t.Error("reflavor to 'any' accepted")
	}
	if err := o.Reflavor("g1", "vpn", nffg.TechDPDK); err == nil {
		t.Error("reflavor to unpackaged flavor accepted (ipsec has no dpdk flavor)")
	}
	// Swapping to the current flavor is a no-op, not an error.
	if err := o.Reflavor("g1", "vpn", nffg.TechVM); err != nil {
		t.Errorf("no-op reflavor failed: %v", err)
	}
	if got := journalDetails(o, telemetry.EventReflavor); len(got) != 0 {
		t.Errorf("no-op/failed reflavors journaled a swap: %v", got)
	}
}

// TestReflavorAuto: the policy re-ranks flavors with current availability —
// with the native capability gone, the policy-triggered variant moves the
// NF to the next-ranked deployable flavor.
func TestReflavorAuto(t *testing.T) {
	o := newNode(t)
	g := ipsecGraph("g1", nffg.TechAny)
	if err := o.Deploy(g); err != nil {
		t.Fatal(err)
	}
	d, _ := o.Graph("g1")
	if tech := d.Instances()["vpn"].Technology; tech != nffg.TechNative {
		t.Fatalf("first-fit deployed %s, want native", tech)
	}
	// Current flavor still ranked first: no swap.
	tech, err := o.ReflavorAuto("g1", "vpn")
	if err != nil || tech != nffg.TechNative {
		t.Fatalf("ReflavorAuto = %s, %v; want native no-op", tech, err)
	}
	// The native capability disappears: the policy must move the NF.
	o.cfg.Resources.RemoveCapability("nnf:ipsec")
	tech, err = o.ReflavorAuto("g1", "vpn")
	if err != nil {
		t.Fatal(err)
	}
	if tech != nffg.TechDocker {
		t.Fatalf("ReflavorAuto chose %s, want docker", tech)
	}
	d, _ = o.Graph("g1")
	if got := d.Instances()["vpn"].Technology; got != nffg.TechDocker {
		t.Fatalf("instance still %s after auto reflavor", got)
	}
}

// TestReflavorTelemetry: the hot-swap shows up in the metric registry (swap
// counter, latency histogram, per-NF state gauge) and the journal.
func TestReflavorTelemetry(t *testing.T) {
	o := newNode(t)
	if err := o.Deploy(ipsecGraph("g1", nffg.TechVM)); err != nil {
		t.Fatal(err)
	}
	if err := o.Reflavor("g1", "vpn", nffg.TechDocker); err != nil {
		t.Fatal(err)
	}
	var buf strings.Builder
	if err := o.WriteMetrics(&buf); err != nil {
		t.Fatal(err)
	}
	metrics := buf.String()
	for _, want := range []string{
		"un_reflavors_total 1",
		`un_nf_state{graph="g1",nf="vpn"} 3`, // 3 = running
		"un_reflavor_seconds_count 1",
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
	if got := journalDetails(o, telemetry.EventReflavor); len(got) != 1 || got[0] != "vpn -> docker" {
		t.Errorf("reflavor journal = %v", got)
	}
}

// TestParallelDeployFasterThanSerial pins the point of the concurrent start
// phase: with a 15 ms docker boot, an 8-NF graph must deploy at least
// twice as fast with parallel starts as with serialized ones.
func TestParallelDeployFasterThanSerial(t *testing.T) {
	measure := func(maxParallel int) time.Duration {
		o := buildNode(t, maxParallel, 15*time.Millisecond)
		g := fwChainGraph("g", 8, nffg.TechDocker)
		start := time.Now()
		if err := o.Deploy(g); err != nil {
			t.Fatal(err)
		}
		elapsed := time.Since(start)
		if err := o.Undeploy("g"); err != nil {
			t.Fatal(err)
		}
		return elapsed
	}
	serial := measure(1)
	parallel := measure(8)
	if parallel*2 > serial {
		t.Fatalf("parallel deploy %v not 2x faster than serial %v", parallel, serial)
	}
}

// TestConcurrentGraphOps hammers Deploy/Update/Reflavor/Undeploy of the
// same graph id alongside read paths; meaningful under -race. Per-graph
// operation locks must serialize the writers without deadlocking.
func TestConcurrentGraphOps(t *testing.T) {
	o := newNode(t)
	const workers = 4
	const iters = 25
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				switch (w + i) % 4 {
				case 0:
					_ = o.Deploy(fwChainGraph("shared", 1, nffg.TechDocker))
				case 1:
					_ = o.Update(fwChainGraph("shared", 2, nffg.TechDocker))
				case 2:
					_ = o.Reflavor("shared", "fw0", nffg.TechVM)
				case 3:
					_ = o.Undeploy("shared")
				}
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < workers*iters; i++ {
			_ = o.Topology()
			_ = o.GraphIDs()
			var buf strings.Builder
			_ = o.WriteMetrics(&buf)
		}
	}()
	wg.Wait()
	// Whatever interleaving happened, the node must still deploy cleanly.
	_ = o.Undeploy("shared")
	if err := o.Deploy(fwChainGraph("final", 2, nffg.TechDocker)); err != nil {
		t.Fatalf("node wedged after concurrent ops: %v", err)
	}
}

// TestNFStateLifecycle walks one NF through deploy and undeploy and checks
// the surfaced state plus the journaled transition sequence.
func TestNFStateLifecycle(t *testing.T) {
	o := newNode(t)
	if err := o.Deploy(ipsecGraph("g1", nffg.TechNative)); err != nil {
		t.Fatal(err)
	}
	topo := o.Topology()
	if st := topo.Graphs[0].NFs[0].State; st != string(StateRunning) {
		t.Fatalf("deployed NF state %q, want running", st)
	}
	transitions := journalDetails(o, telemetry.EventNFState)
	want := []string{
		"vpn: pending -> starting",
		"vpn: starting -> attaching",
		"vpn: attaching -> running",
	}
	if strings.Join(transitions, "|") != strings.Join(want, "|") {
		t.Fatalf("transitions %v, want %v", transitions, want)
	}
	if err := o.Undeploy("g1"); err != nil {
		t.Fatal(err)
	}
	transitions = journalDetails(o, telemetry.EventNFState)
	if last := transitions[len(transitions)-1]; last != "vpn: running -> stopped" {
		t.Fatalf("last transition %q, want running -> stopped", last)
	}
}

// TestNFEventRenderersMatchFormats: the NF events rendered on read say what
// their formats said when they were built at record time, for every state
// pair and every technology a compute driver can have.
func TestNFEventRenderersMatchFormats(t *testing.T) {
	for _, from := range stateOrder {
		for _, to := range stateOrder {
			if got, want := renderState("nf0", uint8(from.index()), uint8(to.index())), fmt.Sprintf("%s: %s -> %s", "nf0", from, to); got != want {
				t.Errorf("state %s -> %s rendered %q, want %q", from, to, got, want)
			}
		}
	}
	for _, tech := range []nffg.Technology{nffg.TechVM, nffg.TechDocker, nffg.TechDPDK, nffg.TechNative} {
		if got, want := renderAs("nf0", techCode(tech), 0), fmt.Sprintf("%s as %s", "nf0", tech); got != want {
			t.Errorf("%s rendered %q, want %q", tech, got, want)
		}
		if got, want := renderAs("nf0", techCode(tech), 1), fmt.Sprintf("%s as %s%s", "nf0", tech, " (standby)"); got != want {
			t.Errorf("%s standby rendered %q, want %q", tech, got, want)
		}
	}
	if got, want := renderReconfigured("nf0", 0, 0), fmt.Sprintf("%s reconfigured in place", "nf0"); got != want {
		t.Errorf("reconfigured rendered %q, want %q", got, want)
	}
}
