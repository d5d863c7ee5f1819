package global_test

import (
	"encoding/json"
	"maps"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/global"
	"repro/internal/nffg"
)

// freeCapacity returns the capacity placement plans against, per node.
func freeCapacity(o *global.Orchestrator) map[string][2]uint64 {
	out := make(map[string][2]uint64)
	for _, n := range o.ListNodes() {
		out[n.Name] = [2]uint64{uint64(n.FreeCPUMillis), n.FreeRAMBytes}
	}
	return out
}

// Placement charges its own verbs to the fleet view instead of probing: a
// deploy, a config-only update, a re-placement onto fewer nodes and an
// undeploy net to zero on every member, with no reconcile pass between.
func TestLedgerNetsToZero(t *testing.T) {
	f := lineFleet(t, 250)
	before := freeCapacity(f.g)
	f.verbs()
	if err := f.g.Deploy(firewallChain("svc", 6, 1)); err != nil {
		t.Fatal(err)
	}
	if charged := freeCapacity(f.g); maps.Equal(charged, before) {
		t.Fatalf("deploying six NFs charged nothing: %v", charged)
	}
	for _, g := range []*nffg.Graph{firewallChain("svc", 6, 2), firewallChain("svc", 2, 2)} {
		if err := f.g.Update(g); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.g.Undeploy("svc"); err != nil {
		t.Fatal(err)
	}
	if after := freeCapacity(f.g); !maps.Equal(after, before) {
		t.Fatalf("free capacity after the lifecycle %v, before it %v", after, before)
	}
	if got := f.verbs(); got["n1 status"]+got["n2 status"]+got["n3 status"] != 0 {
		t.Fatalf("the lifecycle probed: %v", got)
	}
}

// A node killed since its last probe takes the first placement's step and
// fails it. That leaves it stale, so the one re-plan probes it, finds it dead
// and places on the survivor: the request succeeds.
func TestReplanSkipsNodeKilledSinceProbe(t *testing.T) {
	f := newFleet(t,
		[]nodeSpec{
			{name: "n1", ifaces: []string{"lan", "wan", "x"}, cpuMillis: 4000},
			{name: "n2", ifaces: []string{"lan", "wan", "x"}, cpuMillis: 4000},
		},
		[]linkSpec{{a: "n1", aIf: "x", b: "n2", bIf: "x"}})
	f.locals["n1"].SetDown(true)
	f.verbs()
	if err := f.g.Deploy(chainGraph("svc", 2)); err != nil {
		t.Fatalf("deploy with a node dead since its last probe: %v", err)
	}
	want := map[string]int{"n1 deploy": 1, "n1 status": 1, "n2 deploy": 1}
	if got := f.verbs(); !maps.Equal(got, want) {
		t.Fatalf("node calls %v, want %v", got, want)
	}
	if pl, _ := f.g.Placement("svc"); pl.NFNode["nf0"] != "n2" || pl.NFNode["nf1"] != "n2" {
		t.Fatalf("placed on %v, want the survivor n2", pl.NFNode)
	}
}

// A node that refuses a step while staying healthy is probed once before the
// one re-plan, which places on it again: the request gets the refusal, after
// two attempts.
func TestReplanOnceOnRefusal(t *testing.T) {
	f := lineFleet(t, 250)
	f.locals["n2"].refuse("deploy")
	f.verbs()
	if err := f.g.Deploy(chainGraph("svc", 6)); err == nil {
		t.Fatal("deploy onto a refusing node succeeded")
	}
	got := f.verbs()
	if got["n1 status"] != 0 || got["n2 status"] != 1 || got["n3 status"] != 0 || got["n2 deploy"] != 2 {
		t.Fatalf("node calls %v, want one probe of n2 only and two deploys on it", got)
	}
	if _, ok := f.g.Graph("svc"); ok {
		t.Fatal("the refused graph is deployed")
	}
}

// Reflavor and Scale change what a node runs in ways the fleet view cannot
// charge, so the next placement probes that node, and the one after does not.
func TestReflavorAndScaleLeaveNodeStale(t *testing.T) {
	f := lineFleet(t, 8000)
	scalable := chainGraph("scalable", 1)
	scalable.NFs[0].TechnologyPreference = nffg.TechDocker
	for _, g := range []*nffg.Graph{scalable, chainGraph("native", 1)} {
		if err := f.g.Deploy(g); err != nil {
			t.Fatal(err)
		}
	}
	pl, _ := f.g.Placement("native")
	host := pl.NFNode["nf0"]
	if pl, _ := f.g.Placement("scalable"); pl.NFNode["nf0"] != host {
		t.Fatalf("the two NFs landed on %s and %s", host, pl.NFNode["nf0"])
	}
	for _, tc := range []struct {
		name string
		verb func() error
	}{
		{"scale", func() error { return f.g.Scale("scalable", "nf0", 2) }},
		{"reflavor", func() error { return f.g.Reflavor("native", "nf0", nffg.TechDocker) }},
	} {
		if err := tc.verb(); err != nil {
			t.Fatal(err)
		}
		f.verbs()
		for i, want := range []map[string]int{{host + " status": 1}, {}} {
			if _, err := f.g.PlanDeploy(scalable); err != nil {
				t.Fatal(err)
			}
			if got := f.verbs(); !maps.Equal(got, want) {
				t.Fatalf("placement %d after %s asked %v, want %v", i+1, tc.name, got, want)
			}
		}
	}
}

// A promoted leader has restored its members from their records, not probed
// them: its first placement probes each once, and later ones none.
func TestPromotedLeaderProbesRestoredMembersOnce(t *testing.T) {
	f := lineFleet(t, 250)
	store := cluster.NewIntentStore()
	var seq uint64
	record := func(kind cluster.OpKind, key string, v any) {
		data, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		seq++
		store.Apply(cluster.Op{Seq: seq, Kind: kind, Key: key, Data: data})
	}
	for name := range f.locals {
		record(cluster.OpNodeAdd, name, global.NodeRecord{Name: name})
	}
	for _, l := range f.g.Links() {
		record(cluster.OpLinkAdd, l.A+"/"+l.AIf+"|"+l.B+"/"+l.BIf, l)
	}
	promoted := global.New(global.Config{Logf: t.Logf})
	promoted.SetNodeResolver(func(name string, _ json.RawMessage) (global.Node, error) { return f.locals[name], nil })
	if err := promoted.RestoreIntent(store); err != nil {
		t.Fatal(err)
	}
	f.verbs()
	for i, probes := range []map[string]int{{"n1 status": 1, "n2 status": 1, "n3 status": 1}, {}} {
		if err := promoted.Deploy(firewallChain("svc", 6, 1)); err != nil {
			t.Fatal(err)
		}
		if err := promoted.Undeploy("svc"); err != nil {
			t.Fatal(err)
		}
		got := make(map[string]int)
		for key, n := range f.verbs() {
			if strings.HasSuffix(key, " status") {
				got[key] = n
			}
		}
		if !maps.Equal(got, probes) {
			t.Fatalf("lifecycle %d on the promoted leader probed %v, want %v", i+1, got, probes)
		}
	}
}
