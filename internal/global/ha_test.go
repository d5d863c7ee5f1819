package global_test

import (
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	un "repro"
	"repro/internal/cluster"
	"repro/internal/global"
	"repro/internal/nffg"
)

// haRig is two orchestrators over one in-process fleet: o1 plays the
// leader recording intent into a replicated store, o2 the follower that
// replays it on promotion.
type haRig struct {
	o1, o2 *global.Orchestrator
	locals map[string]*global.LocalNode
	store  *cluster.IntentStore
	seq    uint64
	mu     sync.Mutex
}

func (r *haRig) record(kind cluster.OpKind, key string, data json.RawMessage) (func() error, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.seq++
	r.store.Apply(cluster.Op{Seq: r.seq, Kind: kind, Key: key, Data: data})
	return nil, nil
}

func newHARig(t *testing.T, nodes int) *haRig {
	t.Helper()
	r := &haRig{
		locals: make(map[string]*global.LocalNode),
		store:  cluster.NewIntentStore(),
	}
	r.o1 = global.New(global.Config{Logf: t.Logf, ProbeInterval: 5 * time.Millisecond})
	r.o1.SetIntentRecorder(r.record)
	for i := 0; i < nodes; i++ {
		name := fmt.Sprintf("n%d", i+1)
		node, err := un.NewNode(un.Config{
			Name:         name,
			Interfaces:   []string{"lan", "wan"},
			CPUMillis:    8000,
			RAMBytes:     1 << 30,
			Capabilities: chainCaps,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(node.Close)
		ln := global.NewLocalNode(name, node)
		r.locals[name] = ln
		if err := r.o1.AddNode(ln); err != nil {
			t.Fatal(err)
		}
	}
	r.o2 = global.New(global.Config{Logf: t.Logf, ProbeInterval: 5 * time.Millisecond})
	r.o2.SetNodeResolver(func(name string, rec json.RawMessage) (global.Node, error) {
		ln, ok := r.locals[name]
		if !ok {
			return nil, fmt.Errorf("no such node %q", name)
		}
		return ln, nil
	})
	return r
}

// colocatedGraph is a two-NF chain with both endpoints on one interface
// pair, placeable on any single node (the rig declares no inter-node
// links, so placement must co-locate).
func colocatedGraph(id string) *nffg.Graph {
	g := chainGraph(id, 2)
	return g
}

func TestLeaderGateFencesMutations(t *testing.T) {
	r := newHARig(t, 1)
	var leader bool
	var mu sync.Mutex
	r.o1.SetLeaderGate(func() bool {
		mu.Lock()
		defer mu.Unlock()
		return leader
	})

	if err := r.o1.Deploy(colocatedGraph("g1")); !errors.Is(err, global.ErrNotLeader) {
		t.Fatalf("Deploy on non-leader: %v", err)
	}
	if _, err := r.o1.Apply(colocatedGraph("g1")); !errors.Is(err, global.ErrNotLeader) {
		t.Fatalf("Apply on non-leader: %v", err)
	}
	if err := r.o1.Undeploy("g1"); !errors.Is(err, global.ErrNotLeader) {
		t.Fatalf("Undeploy on non-leader: %v", err)
	}
	if err := r.o1.Scale("g1", "nf0", 2); !errors.Is(err, global.ErrNotLeader) {
		t.Fatalf("Scale on non-leader: %v", err)
	}
	if err := r.o1.Reflavor("g1", "nf0", nffg.TechDocker); !errors.Is(err, global.ErrNotLeader) {
		t.Fatalf("Reflavor on non-leader: %v", err)
	}
	if err := r.o1.RemoveNode("n1"); !errors.Is(err, global.ErrNotLeader) {
		t.Fatalf("RemoveNode on non-leader: %v", err)
	}
	if err := r.o1.Link("n1", "lan", "n1", "wan"); !errors.Is(err, global.ErrNotLeader) {
		t.Fatalf("Link on non-leader: %v", err)
	}
	if r.o1.IsLeader() {
		t.Fatal("IsLeader true while gated off")
	}

	mu.Lock()
	leader = true
	mu.Unlock()
	if err := r.o1.Deploy(colocatedGraph("g1")); err != nil {
		t.Fatalf("Deploy on leader: %v", err)
	}
	if !r.o1.IsLeader() {
		t.Fatal("IsLeader false while gated on")
	}
}

// Promotion replay: the follower rebuilds the whole fleet view from the
// replicated intent store — graphs, placement, nodes — and its first
// reconcile pass records nothing (byte-identical bookkeeping) and
// repairs nothing (the running fleet already matches).
func TestPromotionReplayReproducesDesiredState(t *testing.T) {
	r := newHARig(t, 2)
	for _, id := range []string{"ga", "gb"} {
		g := colocatedGraph(id)
		// Pin nf0 to docker so it is scalable (shared native NFs are not).
		g.NFs[0].TechnologyPreference = nffg.TechDocker
		if err := r.o1.Deploy(g); err != nil {
			t.Fatal(err)
		}
	}
	if err := r.o1.Scale("ga", "nf0", 3); err != nil {
		t.Fatal(err)
	}

	if err := r.o2.RestoreIntent(r.store); err != nil {
		t.Fatal(err)
	}

	wantIDs := r.o1.GraphIDs()
	gotIDs := r.o2.GraphIDs()
	if fmt.Sprint(wantIDs) != fmt.Sprint(gotIDs) {
		t.Fatalf("graph set differs: leader %v, promoted %v", wantIDs, gotIDs)
	}
	for _, id := range wantIDs {
		want, _ := r.o1.Placement(id)
		got, ok := r.o2.Placement(id)
		if !ok || fmt.Sprint(want) != fmt.Sprint(got) {
			t.Fatalf("placement of %q differs: leader %v, promoted %v", id, want, got)
		}
	}
	g, ok := r.o2.Graph("ga")
	if !ok {
		t.Fatal("promoted leader lost graph ga")
	}
	if nf := g.FindNF("nf0"); nf == nil || nf.Replicas != 3 {
		t.Fatalf("scaled replica count lost on replay: %+v", nf)
	}
	nodes := r.o2.ListNodes()
	if len(nodes) != 2 {
		t.Fatalf("fleet view differs: %v", nodes)
	}

	// The promoted leader's sweep must be silent: every record it would
	// write is byte-identical to what the old leader recorded.
	var replayed []string
	r.o2.SetIntentRecorder(func(kind cluster.OpKind, key string, data json.RawMessage) (func() error, error) {
		replayed = append(replayed, string(kind)+" "+key)
		return nil, nil
	})
	r.o2.ReconcileOnce()
	if len(replayed) != 0 {
		t.Fatalf("promotion replay not byte-identical; re-recorded: %v", replayed)
	}

	// And the fleet itself was untouched: both nodes still hold exactly
	// their subgraphs (no redeploys, no drift repairs needed).
	r.o2.ReconcileOnce()
	for _, id := range wantIDs {
		if _, ok := r.o2.Graph(id); !ok {
			t.Fatalf("graph %q lost after reconcile", id)
		}
	}
}

// A mid-stream undeploy must replicate as a removal, not linger in the
// follower's replay.
func TestIntentUndeployReplicates(t *testing.T) {
	r := newHARig(t, 1)
	if err := r.o1.Deploy(colocatedGraph("ga")); err != nil {
		t.Fatal(err)
	}
	if err := r.o1.Deploy(colocatedGraph("gb")); err != nil {
		t.Fatal(err)
	}
	if err := r.o1.Undeploy("ga"); err != nil {
		t.Fatal(err)
	}
	if err := r.o2.RestoreIntent(r.store); err != nil {
		t.Fatal(err)
	}
	if ids := r.o2.GraphIDs(); len(ids) != 1 || ids[0] != "gb" {
		t.Fatalf("replayed graph set: %v", ids)
	}
}

// A replication commit wait that fails must surface as ErrNotCommitted
// while the locally applied change stays: the op remains in the leader's
// log and commits once quorum returns, so a client retry is safe and
// idempotent.
func TestMutationSurfacesCommitFailure(t *testing.T) {
	r := newHARig(t, 1)
	r.o1.SetIntentRecorder(func(kind cluster.OpKind, key string, data json.RawMessage) (func() error, error) {
		return func() error { return fmt.Errorf("quorum lost") }, nil
	})
	err := r.o1.Deploy(colocatedGraph("gc"))
	if !errors.Is(err, global.ErrNotCommitted) {
		t.Fatalf("Deploy with failing commit = %v, want ErrNotCommitted", err)
	}
	if _, ok := r.o1.Graph("gc"); !ok {
		t.Fatal("local apply rolled back; the accepted change must stay")
	}

	// A staging failure (Propose refused) surfaces the same way.
	r.o1.SetIntentRecorder(func(kind cluster.OpKind, key string, data json.RawMessage) (func() error, error) {
		return nil, fmt.Errorf("transport down")
	})
	if err := r.o1.Undeploy("gc"); !errors.Is(err, global.ErrNotCommitted) {
		t.Fatalf("Undeploy with failing staging = %v, want ErrNotCommitted", err)
	}

	// A record that failed to stage is owed to the log: the next reconcile
	// pass proposes exactly it — the removal of gc here — and nothing for
	// graphs whose records are current; a quiet pass proposes nothing.
	var proposed []string
	refuseNext := false
	r.o1.SetIntentRecorder(func(kind cluster.OpKind, key string, data json.RawMessage) (func() error, error) {
		if refuseNext {
			refuseNext = false
			return nil, fmt.Errorf("transport down")
		}
		proposed = append(proposed, string(kind)+" "+key)
		return r.record(kind, key, data)
	})
	r.o1.ReconcileOnce()
	if fmt.Sprint(proposed) != "[undeploy gc]" {
		t.Fatalf("pass after a failed staging proposed %v, want exactly [undeploy gc]", proposed)
	}
	for _, id := range []string{"ga", "gb"} {
		g := colocatedGraph(id)
		g.NFs[0].TechnologyPreference = nffg.TechDocker // scalable
		if err := r.o1.Deploy(g); err != nil {
			t.Fatal(err)
		}
	}
	refuseNext = true
	if err := r.o1.Scale("gb", "nf0", 2); !errors.Is(err, global.ErrNotCommitted) {
		t.Fatalf("Scale with failing staging = %v, want ErrNotCommitted", err)
	}
	proposed = nil
	r.o1.ReconcileOnce()
	if fmt.Sprint(proposed) != "[scale gb]" {
		t.Fatalf("pass after a failed staging proposed %v, want exactly [scale gb]", proposed)
	}
	var rec struct {
		Desired *nffg.Graph `json:"desired"`
	}
	if err := json.Unmarshal(r.store.Get("graphs", "gb"), &rec); err != nil {
		t.Fatal(err)
	}
	if n := rec.Desired.FindNF("nf0"); n == nil || n.Replicas != 2 {
		t.Fatalf("retried record is not gb's current state: nf0 = %+v", n)
	}
	proposed = nil
	r.o1.ReconcileOnce()
	if len(proposed) != 0 {
		t.Fatalf("quiet pass proposed %v", proposed)
	}
}

// Gossip-driven liveness overrides take effect immediately and reconcile
// probes converge them back to the truth.
func TestSetNodeLivenessOverridesAndRecovers(t *testing.T) {
	r := newHARig(t, 1)
	r.o1.SetNodeLiveness("n1", false)
	nodes := r.o1.ListNodes()
	if len(nodes) != 1 || nodes[0].Alive {
		t.Fatalf("gossip death not applied: %v", nodes)
	}
	r.o1.ReconcileOnce() // the node is actually fine; the probe revives it
	nodes = r.o1.ListNodes()
	if len(nodes) != 1 || !nodes[0].Alive {
		t.Fatalf("probe did not revive node: %v", nodes)
	}
}
