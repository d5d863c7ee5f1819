//go:build !race

// Allocation figures differ under the race detector's instrumentation.

package un_test

import (
	"bytes"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"repro/internal/global"
)

// TestHALifecycleBytesCeiling pins what one create → config-only update →
// undeploy lifecycle of deploy-churn's six-NF chain allocates on the
// three-replica control plane over the three-node line, followers included:
// each of the lifecycle's three intent records crosses to each of the two
// followers exactly once (un_cluster_ops_shipped_total = 2 ×
// un_cluster_intent_ops_total), and the log and the store of every replica
// share the record instead of copying it. It read 329 KB per lifecycle when
// a proposal also woke the heartbeat loop, whose round shipped some records
// a second time, every replica copied each record into its log and again
// into its store, and the NF-FG codec grew its slices by appending; 248 KB
// once those were gone, while the graph and the deployment record were
// encoded by encoding/json's reflection; 225 KB once they were written by
// hand in one pass; 218 KB since each flow change is one commit over the
// LSI's control channel, applied as one table publish. The ceiling is that
// figure plus 10% slack, which also
// covers the background loops (gossip, heartbeats, reconcile) that allocate
// while the lifecycles run.
func TestHALifecycleBytesCeiling(t *testing.T) {
	const (
		rounds    = 60
		ceilingKB = 240
	)
	orch := haLineFleet(t)
	g, cfg := globalChain("svc", 6), globalChain("svc", 6)
	g.NFs[0].Config = map[string]string{"rules": "drop proto=tcp dport=82", "default": "accept"}
	cfg.NFs[0].Config = map[string]string{"rules": "drop proto=tcp dport=82;drop proto=tcp dport=443", "default": "accept"}
	lifecycle := func() {
		if err := orch.Deploy(g); err != nil {
			t.Fatal(err)
		}
		if err := orch.Update(cfg); err != nil {
			t.Fatal(err)
		}
		if err := orch.Undeploy("svc"); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 10; i++ {
		lifecycle() // lazily built state, as unbench's warm-up
	}
	recorded, shipped := clusterCounter(t, orch, "un_cluster_intent_ops_total"), clusterCounter(t, orch, "un_cluster_ops_shipped_total")
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < rounds; i++ {
		lifecycle()
	}
	runtime.ReadMemStats(&after)
	recorded = clusterCounter(t, orch, "un_cluster_intent_ops_total") - recorded
	shipped = clusterCounter(t, orch, "un_cluster_ops_shipped_total") - shipped

	kb := float64(after.TotalAlloc-before.TotalAlloc) / 1024 / rounds
	t.Logf("%.1f KB allocated per lifecycle (ceiling %d KB); %d intent ops recorded, %d shipped", kb, ceilingKB, recorded, shipped)
	if kb > ceilingKB {
		t.Errorf("%.1f KB allocated per lifecycle, ceiling %d KB", kb, ceilingKB)
	}
	if recorded != 3*rounds {
		t.Errorf("%d intent ops recorded over %d lifecycles, want %d", recorded, rounds, 3*rounds)
	}
	if shipped != 2*recorded {
		t.Errorf("%d intent ops shipped for %d recorded on 3 replicas, want %d: each op crosses to each follower once", shipped, recorded, 2*recorded)
	}
}

// clusterCounter reads one unlabelled counter from the orchestrator's
// /metrics exposition.
func clusterCounter(t *testing.T, o *global.Orchestrator, name string) uint64 {
	t.Helper()
	var buf bytes.Buffer
	if err := o.Metrics().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(buf.String(), "\n") {
		if v, ok := strings.CutPrefix(line, name+" "); ok {
			n, err := strconv.ParseUint(v, 10, 64)
			if err != nil {
				t.Fatal(err)
			}
			return n
		}
	}
	t.Fatalf("no %s in the exposition", name)
	return 0
}
