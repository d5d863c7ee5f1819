package global_test

import (
	"bytes"
	"fmt"
	"maps"
	"slices"
	"testing"

	"repro/internal/global"
	"repro/internal/nffg"
)

// firewallChain is chainGraph with rules on its first NF, a firewall.
func firewallChain(id string, nfs int, dport int) *nffg.Graph {
	g := chainGraph(id, nfs)
	g.NFs[0].Config = map[string]string{"rules": fmt.Sprintf("drop proto=tcp dport=%d", dport)}
	return g
}

// crossesLine reports whether a frame sent in at n1/lan comes out intact at
// n3/wan.
func crossesLine(t *testing.T, f *fleet, payload byte) bool {
	t.Helper()
	frame := testFrame(t, payload)
	f.send(t, "n1", "lan", frame)
	got, ok := f.recv(t, "n3", "wan")
	return ok && bytes.Equal(got, frame)
}

func assertLedger(t *testing.T, o *global.Orchestrator, when string) {
	t.Helper()
	if held, live := global.StitchLedger(o); !slices.Equal(held, live) {
		t.Fatalf("%s: allocator holds %v, the live graph rides %v", when, held, live)
	}
}

// A global update is a diff: changing one NF's config keeps every stitch and
// its VLANs, so only the node hosting the NF is told anything, and a PUT of the
// graph it already runs tells no node anything. Placement plans from the fleet
// view, charged with its own deploys, so it probes no node. A re-placement
// that moves an NF still restitches on fresh VLANs and frees the old ones.
func TestConfigUpdateTouchesOneNode(t *testing.T) {
	f := lineFleet(t, 250)
	if _, err := f.g.Apply(firewallChain("svc", 6, 1)); err != nil {
		t.Fatal(err)
	}
	pl, _ := f.g.Placement("svc")
	host := pl.NFNode["nf0"]
	stitches := global.Stitches(f.g, "svc")
	f.verbs()

	if _, err := f.g.Apply(firewallChain("svc", 6, 2)); err != nil {
		t.Fatal(err)
	}
	want := map[string]int{host + " update": 1}
	if got := f.verbs(); !maps.Equal(got, want) {
		t.Fatalf("config-only update asked %v, want %v", got, want)
	}
	if got := global.Stitches(f.g, "svc"); got != stitches {
		t.Fatalf("config-only update restitched:\n was %s\n now %s", stitches, got)
	}
	if _, err := f.g.Apply(firewallChain("svc", 6, 2)); err != nil {
		t.Fatal(err)
	}
	if got := f.verbs(); len(got) != 0 {
		t.Fatalf("a PUT of the running graph asked %v, want nothing", got)
	}

	for i := 0; i < 200; i++ {
		if _, err := f.g.Apply(firewallChain("svc", 6, 3+i%2)); err != nil {
			t.Fatal(err)
		}
	}
	if got := global.Stitches(f.g, "svc"); got != stitches {
		t.Fatalf("200 config updates restitched:\n was %s\n now %s", stitches, got)
	}
	assertLedger(t, f.g, "after 200 updates")
	if !crossesLine(t, f, 0x71) {
		t.Fatal("chain does not carry traffic after 200 config updates")
	}

	// A shorter chain packs onto n1 and hands off to wan through n2; then
	// anti-affinity moves nf1 off n1. Each re-placement restitches.
	short := firewallChain("svc", 2, 3)
	spread := firewallChain("svc", 2, 3)
	spread.NFs[0].AntiAffinity, spread.NFs[1].AntiAffinity = "spread", "spread"
	for _, g := range []*nffg.Graph{short, spread} {
		before, _ := f.g.Placement("svc")
		if _, err := f.g.Apply(g); err != nil {
			t.Fatal(err)
		}
		after, _ := f.g.Placement("svc")
		if got := global.Stitches(f.g, "svc"); got == stitches {
			t.Fatalf("re-placement %v -> %v kept the stitches %s", before.NFNode, after.NFNode, got)
		}
		stitches = global.Stitches(f.g, "svc")
		assertLedger(t, f.g, "after a re-placement")
		if !crossesLine(t, f, 0x72) {
			t.Fatalf("chain does not carry traffic after the re-placement to %v", after.NFNode)
		}
	}
	if moved, _ := f.g.Placement("svc"); moved.NFNode["nf1"] == "n1" {
		t.Fatalf("anti-affinity left nf1 on n1: %v", moved.NFNode)
	}
}

// An update is diffed against what the nodes were told, not against the
// caller's graph: each time the caller edits a deployed graph's config in
// place and updates it, the hosting node gets exactly one Update and runs the
// edited rules.
func TestInPlaceConfigEditReachesNode(t *testing.T) {
	f := lineFleet(t, 250)
	g := firewallChain("svc", 6, 1)
	if err := f.g.Deploy(g); err != nil {
		t.Fatal(err)
	}
	pl, _ := f.g.Placement("svc")
	host := pl.NFNode["nf0"]
	f.verbs()
	for _, rules := range []string{"drop proto=tcp dport=2", "drop proto=tcp dport=3"} {
		g.NFs[0].Config["rules"] = rules
		if err := f.g.Update(g); err != nil {
			t.Fatal(err)
		}
		if got, want := f.verbs(), map[string]int{host + " update": 1}; !maps.Equal(got, want) {
			t.Fatalf("update after an in-place edit to %q asked %v, want %v", rules, got, want)
		}
		spec, ok := f.nodes[host].GraphSpec("svc")
		if !ok {
			t.Fatalf("%s does not run svc", host)
		}
		if n := spec.FindNF("nf0"); n == nil || n.Config["rules"] != rules {
			t.Fatalf("%s runs nf0 as %+v, want the rules %q", host, n, rules)
		}
	}
}

// A dry run of a deployed graph shares the stitches the graph rides: handing
// back what it planned must leave those held. Whether the plan keeps every
// stitch or moves some, the allocator ends as it began.
func TestPlanDeployKeepsAllocator(t *testing.T) {
	f := lineFleet(t, 250)
	if _, err := f.g.Apply(firewallChain("svc", 6, 1)); err != nil {
		t.Fatal(err)
	}
	before, _ := global.StitchLedger(f.g)
	for _, g := range []*nffg.Graph{firewallChain("svc", 6, 1), firewallChain("svc", 6, 2), firewallChain("svc", 2, 1)} {
		if _, err := f.g.PlanDeploy(g); err != nil {
			t.Fatal(err)
		}
		if after, _ := global.StitchLedger(f.g); !slices.Equal(after, before) {
			t.Fatalf("dry run of %d NFs moved the allocator: %v -> %v", len(g.NFs), before, after)
		}
	}
	assertLedger(t, f.g, "after the dry runs")
	if !crossesLine(t, f, 0x73) {
		t.Fatal("chain does not carry traffic after the dry runs")
	}
}

// One deploy-churn lifecycle of a 6-NF chain over the 3-node line — create,
// the dry-run plan of the live graph, two reads, a config-only update, delete
// — asks the nodes for 7 calls, pinned here by kind: a deploy and an undeploy
// on each of the three nodes, and one update on the node hosting the changed
// NF. No placement (create, plan, update) probes: each plans from the fleet
// view its own verbs keep charged. It was 16 calls while every placement
// first asked each of the three nodes for its status.
func TestNodeVerbsPerLifecycle(t *testing.T) {
	f := lineFleet(t, 250)
	const lifecycles = 3
	f.verbs()
	for i := 0; i < lifecycles; i++ {
		if _, err := f.g.Apply(firewallChain("svc", 6, 1)); err != nil {
			t.Fatal(err)
		}
		if _, err := f.g.PlanDeploy(firewallChain("svc", 6, 1)); err != nil {
			t.Fatal(err)
		}
		if _, ok := f.g.Graph("svc"); !ok {
			t.Fatal("graph not readable")
		}
		if _, ok := f.g.Placement("svc"); !ok {
			t.Fatal("placement not readable")
		}
		if _, err := f.g.Apply(firewallChain("svc", 6, 2)); err != nil {
			t.Fatal(err)
		}
		if err := f.g.Undeploy("svc"); err != nil {
			t.Fatal(err)
		}
	}
	byKind := make(map[string]int)
	total := 0
	for key, n := range f.verbs() {
		var node, verb string
		fmt.Sscan(key, &node, &verb)
		byKind[verb] += n
		total += n
	}
	want := map[string]int{"deploy": 3 * lifecycles, "update": lifecycles, "undeploy": 3 * lifecycles}
	if !maps.Equal(byKind, want) {
		t.Fatalf("node calls by kind over %d lifecycles = %v, want %v", lifecycles, byKind, want)
	}
	if total != 7*lifecycles {
		t.Fatalf("%d node calls per lifecycle, want 7", total/lifecycles)
	}
	assertLedger(t, f.g, "after the lifecycles")
}
