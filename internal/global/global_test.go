package global_test

import (
	"bytes"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	un "repro"
	"repro/internal/global"
	"repro/internal/netdev"
	"repro/internal/nffg"
	"repro/internal/orchestrator"
	"repro/internal/pkt"
)

// Both in-process node shapes satisfy the fleet-facing interface.
var (
	_ global.UniversalNode = (*un.Node)(nil)
	_ global.UniversalNode = (*orchestrator.Orchestrator)(nil)
	_ global.Node          = (*global.LocalNode)(nil)
	_ global.Node          = (*global.HTTPNode)(nil)
)

// chainCaps is the capability set of the pass-through NF chain used in
// these tests.
var chainCaps = []string{"docker", "nnf:firewall", "nnf:monitor", "nnf:bridge", "nnf:nat"}

// fleet is an in-process multi-node test rig: one global orchestrator over
// several complete Universal Nodes, wired with Patch cables.
type fleet struct {
	g      *global.Orchestrator
	nodes  map[string]*un.Node
	locals map[string]*flakyNode
}

// flakyNode is the fleet's handle on one in-process node: a LocalNode (so
// SetDown still simulates a dead node) that can additionally be told to
// refuse deploy verbs while staying alive and probeable. It counts the status
// probes and deploy verbs it is asked for.
type flakyNode struct {
	*global.LocalNode
	refusing atomic.Pointer[string] // comma-separated verbs, nil: none

	mu    sync.Mutex
	calls map[string]int // by verb
}

func (n *flakyNode) count(verb string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.calls == nil {
		n.calls = make(map[string]int)
	}
	n.calls[verb]++
}

// verbs returns, and resets, the calls every node of the fleet was asked for,
// keyed "<node> <verb>".
func (f *fleet) verbs() map[string]int {
	out := make(map[string]int)
	for name, n := range f.locals {
		n.mu.Lock()
		for verb, c := range n.calls {
			out[name+" "+verb] += c
		}
		n.calls = nil
		n.mu.Unlock()
	}
	return out
}

func (n *flakyNode) Status() (global.Status, error) {
	n.count("status")
	return n.LocalNode.Status()
}

// refuse makes the node fail the named verbs ("deploy", "update",
// "undeploy") until the next call; no argument lifts the refusal.
func (n *flakyNode) refuse(verbs ...string) {
	list := strings.Join(verbs, ",")
	n.refusing.Store(&list)
}

func (n *flakyNode) refused(verb string) error {
	if list := n.refusing.Load(); list != nil && strings.Contains(*list, verb) {
		return fmt.Errorf("node %q refuses to %s", n.Name(), verb)
	}
	return nil
}

func (n *flakyNode) Deploy(g *nffg.Graph) error {
	n.count("deploy")
	if err := n.refused("deploy"); err != nil {
		return err
	}
	return n.LocalNode.Deploy(g)
}

func (n *flakyNode) Update(g *nffg.Graph) error {
	n.count("update")
	if err := n.refused("update"); err != nil {
		return err
	}
	return n.LocalNode.Update(g)
}

func (n *flakyNode) Undeploy(id string) error {
	n.count("undeploy")
	if err := n.refused("undeploy"); err != nil {
		return err
	}
	return n.LocalNode.Undeploy(id)
}

type nodeSpec struct {
	name      string
	ifaces    []string
	cpuMillis int
}

// linkSpec wires iface aIf of node a to iface bIf of node b.
type linkSpec struct{ a, aIf, b, bIf string }

func newFleet(t *testing.T, specs []nodeSpec, links []linkSpec) *fleet {
	t.Helper()
	f := &fleet{
		g:      global.New(global.Config{Logf: t.Logf, ProbeInterval: 5 * time.Millisecond}),
		nodes:  make(map[string]*un.Node),
		locals: make(map[string]*flakyNode),
	}
	for _, spec := range specs {
		node, err := un.NewNode(un.Config{
			Name:         spec.name,
			Interfaces:   spec.ifaces,
			CPUMillis:    spec.cpuMillis,
			RAMBytes:     1 << 30,
			Capabilities: chainCaps,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(node.Close)
		f.nodes[spec.name] = node
		ln := &flakyNode{LocalNode: global.NewLocalNode(spec.name, node)}
		f.locals[spec.name] = ln
		if err := f.g.AddNode(ln); err != nil {
			t.Fatal(err)
		}
	}
	for _, l := range links {
		pa, ok := f.nodes[l.a].InterfacePort(l.aIf)
		if !ok {
			t.Fatalf("node %q has no interface %q", l.a, l.aIf)
		}
		pb, ok := f.nodes[l.b].InterfacePort(l.bIf)
		if !ok {
			t.Fatalf("node %q has no interface %q", l.b, l.bIf)
		}
		unpatch := global.Patch(pa, pb)
		t.Cleanup(unpatch)
		if err := f.g.Link(l.a, l.aIf, l.b, l.bIf); err != nil {
			t.Fatal(err)
		}
	}
	return f
}

func (f *fleet) send(t *testing.T, node, iface string, data []byte) {
	t.Helper()
	p, ok := f.nodes[node].InterfacePort(iface)
	if !ok {
		t.Fatalf("node %q has no interface %q", node, iface)
	}
	if err := p.Send(netdev.Frame{Data: data}); err != nil {
		t.Fatal(err)
	}
}

func (f *fleet) recv(t *testing.T, node, iface string) ([]byte, bool) {
	t.Helper()
	p, ok := f.nodes[node].InterfacePort(iface)
	if !ok {
		t.Fatalf("node %q has no interface %q", node, iface)
	}
	fr, got := p.TryRecv()
	return fr.Data, got
}

func testFrame(t *testing.T, payloadByte byte) []byte {
	t.Helper()
	return pkt.MustBuildFrame(pkt.FrameSpec{
		SrcMAC: pkt.MAC{2, 0, 0, 0, 0, 1}, DstMAC: pkt.MAC{2, 0, 0, 0, 0, 2},
		SrcIP: pkt.Addr{10, 0, 0, 1}, DstIP: pkt.Addr{10, 0, 0, 2},
		SrcPort: 40000, DstPort: 5001, PayloadLen: 64, PayloadByte: payloadByte,
	})
}

// chainGraph builds a linear service chain of pass-through NFs between the
// lan and wan endpoints: firewall -> monitor -> bridge repeated.
func chainGraph(id string, nfs int) *nffg.Graph {
	templates := []string{"firewall", "monitor", "bridge"}
	g := &nffg.Graph{ID: id, Name: "chain"}
	for i := 0; i < nfs; i++ {
		g.NFs = append(g.NFs, nffg.NF{
			ID:    fmt.Sprintf("nf%d", i),
			Name:  templates[i%len(templates)],
			Ports: []nffg.NFPort{{ID: "0"}, {ID: "1"}},
		})
	}
	g.Endpoints = []nffg.Endpoint{
		{ID: "lan", Type: nffg.EPInterface, Interface: "lan"},
		{ID: "wan", Type: nffg.EPInterface, Interface: "wan"},
	}
	prev := nffg.EndpointRef("lan")
	for i := 0; i < nfs; i++ {
		g.Rules = append(g.Rules, nffg.FlowRule{
			ID: fmt.Sprintf("r%d", i), Priority: 10,
			Match:   nffg.RuleMatch{PortIn: prev},
			Actions: []nffg.RuleAction{{Type: nffg.ActOutput, Output: nffg.NFPortRef(fmt.Sprintf("nf%d", i), "0")}},
		})
		prev = nffg.NFPortRef(fmt.Sprintf("nf%d", i), "1")
	}
	g.Rules = append(g.Rules, nffg.FlowRule{
		ID: "r-out", Priority: 10,
		Match:   nffg.RuleMatch{PortIn: prev},
		Actions: []nffg.RuleAction{{Type: nffg.ActOutput, Output: nffg.EndpointRef("wan")}},
	})
	return g
}

// lineFleet builds the canonical 3-node line topology: lan on n1, wan on
// n3, links n1-n2 and n2-n3.
func lineFleet(t *testing.T, cpuMillis int) *fleet {
	return newFleet(t,
		[]nodeSpec{
			{name: "n1", ifaces: []string{"lan", "x12"}, cpuMillis: cpuMillis},
			{name: "n2", ifaces: []string{"x12", "x23"}, cpuMillis: cpuMillis},
			{name: "n3", ifaces: []string{"x23", "wan"}, cpuMillis: cpuMillis},
		},
		[]linkSpec{
			{a: "n1", aIf: "x12", b: "n2", bIf: "x12"},
			{a: "n2", aIf: "x23", b: "n3", bIf: "x23"},
		})
}

// TestCrossNodeChainEndToEnd is the acceptance scenario: a 3-node fleet
// deploys a 6-NF chain that no single node has resources for, and traffic
// crosses the inter-node stitches end-to-end.
func TestCrossNodeChainEndToEnd(t *testing.T) {
	f := lineFleet(t, 250)
	g := chainGraph("big", 6)
	if err := f.g.Deploy(g); err != nil {
		t.Fatal(err)
	}
	pl, ok := f.g.Placement("big")
	if !ok {
		t.Fatal("no placement recorded")
	}
	hosts := make(map[string]bool)
	for _, n := range pl.NFNode {
		hosts[n] = true
	}
	if len(hosts) < 2 {
		t.Fatalf("6-NF chain packed onto %d node(s) despite 250m/node capacity: %v", len(hosts), pl.NFNode)
	}
	// End-to-end: in at n1/lan, out at n3/wan, payload intact and untagged.
	frame := testFrame(t, 0x5a)
	f.send(t, "n1", "lan", frame)
	got, ok := f.recv(t, "n3", "wan")
	if !ok {
		t.Fatal("nothing emerged at the far end of the chain")
	}
	if !bytes.Equal(got, frame) {
		t.Fatalf("frame corrupted across the stitch:\n got %x\nwant %x", got, frame)
	}
	// Every NF instance actually ran somewhere in the fleet.
	running := 0
	for _, node := range f.nodes {
		if nfs, ok := node.Placements("big"); ok {
			running += len(nfs)
		}
	}
	if running != 6 {
		t.Errorf("fleet runs %d NF instances, want 6", running)
	}
}

// TestSingleNodeCoLocation: when the node owning both endpoints can hold
// the whole chain, the scheduler keeps it together and creates no stitches.
func TestSingleNodeCoLocation(t *testing.T) {
	f := newFleet(t,
		[]nodeSpec{
			{name: "n1", ifaces: []string{"lan", "wan", "x12"}, cpuMillis: 4000},
			{name: "n2", ifaces: []string{"x12"}, cpuMillis: 4000},
		},
		[]linkSpec{{a: "n1", aIf: "x12", b: "n2", bIf: "x12"}})
	if err := f.g.Deploy(chainGraph("small", 3)); err != nil {
		t.Fatal(err)
	}
	pl, _ := f.g.Placement("small")
	for nfID, host := range pl.NFNode {
		if host != "n1" {
			t.Fatalf("NF %s spilled to %s despite n1 having capacity: %v", nfID, host, pl.NFNode)
		}
	}
	if ids := f.nodes["n2"].GraphIDs(); len(ids) != 0 {
		t.Errorf("co-located chain still put state on n2: %v", ids)
	}
	frame := testFrame(t, 0x11)
	f.send(t, "n1", "lan", frame)
	if got, ok := f.recv(t, "n1", "wan"); !ok || !bytes.Equal(got, frame) {
		t.Fatalf("co-located chain traffic broken (ok=%v)", ok)
	}
}

// TestDeployRollsBackOnFailure: a graph that cannot be placed, or that a
// node refuses part-way through, leaves no partial state behind — and a
// refused update leaves the previous version serving.
func TestDeployRollsBackOnFailure(t *testing.T) {
	clean := func(t *testing.T, f *fleet) {
		t.Helper()
		for name, node := range f.nodes {
			if ids := node.GraphIDs(); len(ids) != 0 {
				t.Errorf("node %s left with graphs %v after failed deploy", name, ids)
			}
		}
		if ids := f.g.GraphIDs(); len(ids) != 0 {
			t.Errorf("global orchestrator kept failed graph: %v", ids)
		}
	}
	crosses := func(t *testing.T, f *fleet, payload byte) {
		t.Helper()
		frame := testFrame(t, payload)
		f.send(t, "n1", "lan", frame)
		if got, ok := f.recv(t, "n3", "wan"); !ok || !bytes.Equal(got, frame) {
			t.Fatalf("chain does not carry traffic end to end (ok=%v)", ok)
		}
	}
	t.Run("unplaceable", func(t *testing.T) {
		f := lineFleet(t, 250)
		// 20 NFs exceed the whole fleet's capacity.
		if err := f.g.Deploy(chainGraph("huge", 20)); err == nil {
			t.Fatal("impossible graph accepted")
		}
		clean(t, f)
	})
	t.Run("last node refuses the deploy", func(t *testing.T) {
		f := lineFleet(t, 250)
		f.locals["n3"].refuse("deploy")
		err := f.g.Deploy(chainGraph("big", 6))
		if err == nil || !strings.Contains(err.Error(), `"n3"`) {
			t.Fatalf("Deploy = %v, want n3's refusal", err)
		}
		clean(t, f)
		// The aborted partition's stitch VLANs went back to the allocator:
		// the same graph deploys once n3 cooperates, and carries traffic.
		f.locals["n3"].refuse()
		if err := f.g.Deploy(chainGraph("big", 6)); err != nil {
			t.Fatal(err)
		}
		crosses(t, f, 0x61)
	})
	t.Run("a node refuses the update", func(t *testing.T) {
		f := lineFleet(t, 250)
		if err := f.g.Deploy(chainGraph("svc", 2)); err != nil {
			t.Fatal(err)
		}
		before, _ := f.g.Placement("svc")
		f.locals["n3"].refuse("update", "deploy")
		if err := f.g.Update(chainGraph("svc", 6)); err == nil {
			t.Fatal("update accepted although n3 refused its piece")
		}
		after, _ := f.g.Placement("svc")
		if fmt.Sprint(after) != fmt.Sprint(before) {
			t.Fatalf("placement moved despite the failed update: %v -> %v", before, after)
		}
		g, _ := f.g.Graph("svc")
		if len(g.NFs) != 2 {
			t.Fatalf("desired graph has %d NFs after the failed update, want the previous 2", len(g.NFs))
		}
		crosses(t, f, 0x62)
		f.locals["n3"].refuse()
		f.g.ReconcileOnce() // nothing to repair: every node is back on its old piece
		var metrics strings.Builder
		if err := f.g.WriteFleetMetrics(&metrics); err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(metrics.String(), "un_global_drift_repairs_total 0") {
			t.Error("the revert left subgraphs for drift repair to fix")
		}
		if err := f.g.Update(chainGraph("svc", 6)); err != nil {
			t.Fatal(err)
		}
		crosses(t, f, 0x63)
	})
}

// TestFailoverReschedules is the availability acceptance: killing a node
// moves its graphs onto survivors within one reconcile pass, and traffic
// flows again over the restitched path.
func TestFailoverReschedules(t *testing.T) {
	f := newFleet(t,
		[]nodeSpec{
			// nA owns the user-facing interfaces but has no compute.
			{name: "nA", ifaces: []string{"lan", "wan", "ab", "ac"}, cpuMillis: 10},
			{name: "nB", ifaces: []string{"ab"}, cpuMillis: 500},
			{name: "nC", ifaces: []string{"ac"}, cpuMillis: 500},
		},
		[]linkSpec{
			{a: "nA", aIf: "ab", b: "nB", bIf: "ab"},
			{a: "nA", aIf: "ac", b: "nC", bIf: "ac"},
		})
	g := chainGraph("svc", 1) // one monitor NF
	g.NFs[0].Name = "monitor"
	if err := f.g.Deploy(g); err != nil {
		t.Fatal(err)
	}
	pl, _ := f.g.Placement("svc")
	first := pl.NFNode["nf0"]
	if first != "nB" && first != "nC" {
		t.Fatalf("NF placed on %q, want a compute node", first)
	}
	frame := testFrame(t, 0x21)
	f.send(t, "nA", "lan", frame)
	if got, ok := f.recv(t, "nA", "wan"); !ok || !bytes.Equal(got, frame) {
		t.Fatalf("pre-failover traffic broken (ok=%v)", ok)
	}

	// Kill the hosting node. One reconcile pass must reschedule.
	f.locals[first].SetDown(true)
	f.g.ReconcileOnce()
	pl, _ = f.g.Placement("svc")
	second := pl.NFNode["nf0"]
	if second == first {
		t.Fatalf("NF still on dead node %q after reconcile", first)
	}
	if second != "nB" && second != "nC" {
		t.Fatalf("NF rescheduled to %q, want the surviving compute node", second)
	}
	frame2 := testFrame(t, 0x22)
	f.send(t, "nA", "lan", frame2)
	if got, ok := f.recv(t, "nA", "wan"); !ok || !bytes.Equal(got, frame2) {
		t.Fatalf("post-failover traffic broken (ok=%v)", ok)
	}

	// The dead node comes back holding stale state; anti-entropy clears
	// it without disturbing the rescheduled service.
	f.locals[first].SetDown(false)
	f.g.ReconcileOnce()
	if ids := f.nodes[first].GraphIDs(); len(ids) != 0 {
		t.Errorf("revived node still holds stale graphs %v", ids)
	}
	pl, _ = f.g.Placement("svc")
	if pl.NFNode["nf0"] != second {
		t.Errorf("service moved again after node revival: %v", pl.NFNode)
	}
}

// TestReconcileLoopFailover drives the failover through the background
// reconcile loop (Start/Close) rather than a manual pass: the reschedule
// must land within a small number of probe intervals.
func TestReconcileLoopFailover(t *testing.T) {
	f := newFleet(t,
		[]nodeSpec{
			{name: "nA", ifaces: []string{"lan", "wan", "ab", "ac"}, cpuMillis: 10},
			{name: "nB", ifaces: []string{"ab"}, cpuMillis: 500},
			{name: "nC", ifaces: []string{"ac"}, cpuMillis: 500},
		},
		[]linkSpec{
			{a: "nA", aIf: "ab", b: "nB", bIf: "ab"},
			{a: "nA", aIf: "ac", b: "nC", bIf: "ac"},
		})
	g := chainGraph("svc", 1)
	g.NFs[0].Name = "monitor"
	if err := f.g.Deploy(g); err != nil {
		t.Fatal(err)
	}
	pl, _ := f.g.Placement("svc")
	first := pl.NFNode["nf0"]

	const probe = 5 * time.Millisecond
	f.g.Start()
	defer f.g.Close()

	f.locals[first].SetDown(true)
	deadline := time.Now().Add(5 * time.Second)
	for {
		pl, _ = f.g.Placement("svc")
		if pl.NFNode["nf0"] != first {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("reconcile loop never rescheduled off dead node %q", first)
		}
		time.Sleep(probe)
	}
	frame := testFrame(t, 0x33)
	f.send(t, "nA", "lan", frame)
	if got, ok := f.recv(t, "nA", "wan"); !ok || !bytes.Equal(got, frame) {
		t.Fatalf("traffic broken after loop-driven failover (ok=%v)", ok)
	}
}

// TestDriftRepair: a subgraph deleted behind the orchestrator's back is
// redeployed by the reconcile loop via nffg diffing.
func TestDriftRepair(t *testing.T) {
	f := lineFleet(t, 4000)
	if err := f.g.Deploy(chainGraph("svc", 2)); err != nil {
		t.Fatal(err)
	}
	pl, _ := f.g.Placement("svc")
	host := pl.NFNode["nf0"]
	// Sabotage: remove the subgraph directly on the node.
	if err := f.nodes[host].Undeploy("svc"); err != nil {
		t.Fatal(err)
	}
	f.g.ReconcileOnce()
	if _, ok := f.nodes[host].Graph("svc"); !ok {
		t.Fatal("reconcile did not redeploy the lost subgraph")
	}
	frame := testFrame(t, 0x44)
	f.send(t, "n1", "lan", frame)
	if _, ok := f.recv(t, "n3", "wan"); !ok {
		t.Fatal("traffic broken after drift repair")
	}
}

// TestGlobalUpdateGrowsChain updates a deployed global graph to a longer
// chain, forcing re-placement and restitching in place.
func TestGlobalUpdateGrowsChain(t *testing.T) {
	f := lineFleet(t, 250)
	if err := f.g.Deploy(chainGraph("svc", 2)); err != nil {
		t.Fatal(err)
	}
	if err := f.g.Update(chainGraph("svc", 6)); err != nil {
		t.Fatal(err)
	}
	pl, _ := f.g.Placement("svc")
	if len(pl.NFNode) != 6 {
		t.Fatalf("placement has %d NFs after update, want 6", len(pl.NFNode))
	}
	frame := testFrame(t, 0x55)
	f.send(t, "n1", "lan", frame)
	if got, ok := f.recv(t, "n3", "wan"); !ok || !bytes.Equal(got, frame) {
		t.Fatalf("traffic broken after global update (ok=%v)", ok)
	}
	if err := f.g.Undeploy("svc"); err != nil {
		t.Fatal(err)
	}
	for name, node := range f.nodes {
		if ids := node.GraphIDs(); len(ids) != 0 {
			t.Errorf("node %s still holds %v after global undeploy", name, ids)
		}
	}
}

// TestUndeployWhileNodeDead: undeploying a graph while one of its nodes is
// unreachable — or answers but refuses — defers that node's cleanup; when the
// node cooperates again, the reconcile loop retires the leftover subgraph.
func TestUndeployWhileNodeDead(t *testing.T) {
	for _, tc := range []struct {
		name          string
		lose, recover func(n *flakyNode)
	}{
		{"dead", func(n *flakyNode) { n.SetDown(true) }, func(n *flakyNode) { n.SetDown(false) }},
		{"refusing", func(n *flakyNode) { n.refuse("undeploy") }, func(n *flakyNode) { n.refuse() }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			f := newFleet(t,
				[]nodeSpec{
					{name: "nA", ifaces: []string{"lan", "wan", "ab"}, cpuMillis: 10},
					{name: "nB", ifaces: []string{"ab"}, cpuMillis: 500},
				},
				[]linkSpec{{a: "nA", aIf: "ab", b: "nB", bIf: "ab"}})
			g := chainGraph("svc", 1)
			g.NFs[0].Name = "monitor"
			if err := f.g.Deploy(g); err != nil {
				t.Fatal(err)
			}
			tc.lose(f.locals["nB"])
			// Undeploy succeeds globally even though nB cannot be told.
			if err := f.g.Undeploy("svc"); err != nil {
				t.Fatalf("undeploy failed on an untellable node: %v", err)
			}
			if ids := f.g.GraphIDs(); len(ids) != 0 {
				t.Fatalf("graph still desired after undeploy: %v", ids)
			}
			if ids := f.nodes["nB"].GraphIDs(); len(ids) != 1 {
				t.Fatalf("node lost its subgraph without being told: %v", ids)
			}
			// The node cooperates again: one reconcile pass retires the
			// leftover.
			tc.recover(f.locals["nB"])
			f.g.ReconcileOnce()
			if ids := f.nodes["nB"].GraphIDs(); len(ids) != 0 {
				t.Errorf("node still holds undeployed graph: %v", ids)
			}
		})
	}
}

// TestReconcileRace exercises the reconcile loop concurrently with deploys,
// updates and node flaps; run with -race.
func TestReconcileRace(t *testing.T) {
	f := lineFleet(t, 1000)
	const probe = 2 * time.Millisecond
	fast := f.g
	fast.Start()
	defer fast.Close()

	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 20; i++ {
			id := fmt.Sprintf("g%d", i%3)
			g := chainGraph(id, 1+i%3)
			if err := fast.Deploy(g); err != nil {
				_ = fast.Update(g)
			}
			if i%4 == 3 {
				_ = fast.Undeploy(id)
			}
		}
	}()
	for i := 0; i < 10; i++ {
		f.locals["n2"].SetDown(i%2 == 0)
		time.Sleep(probe)
	}
	f.locals["n2"].SetDown(false)
	<-done
	fast.ReconcileOnce()
}
