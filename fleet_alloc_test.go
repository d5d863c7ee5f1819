//go:build !race

// Allocation figures differ under the race detector's instrumentation.

package un_test

import (
	"bytes"
	"fmt"
	"runtime"
	"strconv"
	"strings"
	"testing"

	un "repro"
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
// hand in one pass; 218 KB once each flow change was one commit over the
// LSI's control channel, applied as one table publish; 184 KB once status
// probes read what the node keeps instead of rendering its topology and a
// port attach or detach stored one slot of the port table; 154 KB once
// placement plans came from the fleet view its own verbs keep charged, with
// no status probe per placement, no per-call maps and no reflection in the
// graph diff; 135 KB once the append RPC and the NF-FG were each decoded in
// one pass without reflection (the in-process transport had round-tripped
// every request through json.Marshal and json.Unmarshal); 128 KB since each
// LSI's OpenFlow channel is a synchronous call into its switch's agent, with
// no net.Pipe and no goroutine hand-off per commit; 117 KB since a graph
// is a value the global tier, the intent record and the nodes share, copied
// once when it crosses Deploy or Update, and an update keeps the subgraph of
// a node whose piece did not change. The ceiling is that figure plus 10%,
// which also covers the background loops (heartbeats, reconcile) that
// allocate while the lifecycles run.
func TestHALifecycleBytesCeiling(t *testing.T) {
	const (
		rounds    = 60
		ceilingKB = 129
	)
	orch := haLineFleet(t, 250)
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

// residentGraph is an NF-less graph on n1 joining VLANs 100+2k and 101+2k
// of lan.
func residentGraph(k int) *un.Graph {
	vlan := uint16(100 + 2*k)
	return &un.Graph{
		ID: fmt.Sprintf("resident-%03d", k),
		Endpoints: []un.Endpoint{
			{ID: "a", Type: un.EPVLAN, Interface: "lan", VLANID: vlan},
			{ID: "b", Type: un.EPVLAN, Interface: "lan", VLANID: vlan + 1},
		},
		Rules: []un.FlowRule{
			{ID: "ab", Priority: 10, Match: un.RuleMatch{PortIn: un.EndpointRef("a")},
				Actions: []un.RuleAction{{Type: un.ActOutput, Output: un.EndpointRef("b")}}},
			{ID: "ba", Priority: 10, Match: un.RuleMatch{PortIn: un.EndpointRef("b")},
				Actions: []un.RuleAction{{Type: un.ActOutput, Output: un.EndpointRef("a")}}},
		},
	}
}

// TestLifecycleCostIndependentOfResidents runs TestHALifecycleBytesCeiling's
// lifecycle after deploying K = 0 and then K = 256 resident graphs on n1:
// one CPE serving many tenants must not pay more per operation for the
// tenants already there. Status probes read what the node keeps instead of
// rendering its topology, port attach and detach store one slot of the
// port table, a follower decodes only the records each op wrote, and an
// LSI-0 commit copies only the chunks of at most 64 entries it changes and
// the chunk list. The bytes bound was +40% while CommitFlows copied the
// whole flat table (8 B per entry per commit, two entries per resident):
// K = 256 read +35.5% (208.0 KB over 153.5 KB), then +40.8% once the codecs
// took 19 KB off K = 0. With the chunked table it reads +6.3% (143.1 KB
// over 134.6 KB): the chunks and chunk list a commit rebuilds, and the
// graph-id slices of the probes.
func TestLifecycleCostIndependentOfResidents(t *testing.T) {
	const (
		rounds      = 60
		maxMallocs  = 0.10
		maxBytes    = 0.10
		residentsAt = 256
	)
	cost := func(t *testing.T, residents int) (mallocs, kb float64) {
		orch := haLineFleet(t, 250)
		for k := 0; k < residents; k++ {
			if err := orch.Deploy(residentGraph(k)); err != nil {
				t.Fatal(err)
			}
		}
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
			lifecycle()
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < rounds; i++ {
			lifecycle()
		}
		runtime.ReadMemStats(&after)
		return float64(after.Mallocs-before.Mallocs) / rounds, float64(after.TotalAlloc-before.TotalAlloc) / 1024 / rounds
	}
	var m0, kb0, m1, kb1 float64
	t.Run("K=0", func(t *testing.T) { m0, kb0 = cost(t, 0) })
	t.Run(fmt.Sprintf("K=%d", residentsAt), func(t *testing.T) { m1, kb1 = cost(t, residentsAt) })
	if t.Failed() {
		return
	}
	t.Logf("per lifecycle: %.0f mallocs / %.1f KB at K = 0, %.0f / %.1f KB at K = %d (%+.1f%% / %+.1f%%)",
		m0, kb0, m1, kb1, residentsAt, 100*(m1/m0-1), 100*(kb1/kb0-1))
	if m1 > m0*(1+maxMallocs) {
		t.Errorf("K = %d residents cost %.0f mallocs per lifecycle, %+.1f%% over K = 0's %.0f (bound %+.0f%%)",
			residentsAt, m1, 100*(m1/m0-1), m0, 100*maxMallocs)
	}
	if kb1 > kb0*(1+maxBytes) {
		t.Errorf("K = %d residents cost %.1f KB per lifecycle, %+.1f%% over K = 0's %.1f KB (bound %+.0f%%)",
			residentsAt, kb1, 100*(kb1/kb0-1), kb0, 100*maxBytes)
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
