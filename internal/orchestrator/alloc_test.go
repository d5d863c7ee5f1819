//go:build !race

// Allocation counts differ under the race detector's instrumentation.

package orchestrator

import (
	"runtime"
	"testing"

	"repro/internal/nffg"
	"repro/internal/telemetry"
)

// TestReflavorAllocCeiling pins what one make-before-break hot-swap round
// trip (VM -> native -> VM, the shape of BenchmarkReflavor) allocates. It
// read 421 before the single-transition refactor, 515-524 after it (a second
// reprogram and the per-swap bucket-move maps), 488-489 once a switch held one
// flow table (no per-table slices and sorts per swap), 472 once a port
// allocated its RX ring only when a frame queues on it, 454 once each
// steering change was one commit over the LSI's control channel whose entries
// are built once, by the switch's agent, and 414 since a port attach or
// detach stores one slot of the port table instead of copying the table and
// swaps the port's handlers once; the ceiling is that count plus 10%, so the
// next forty cannot arrive unnoticed. Lower it when the count comes down.
func TestReflavorAllocCeiling(t *testing.T) {
	const ceiling = 455
	o := newNode(t)
	if err := o.Deploy(ipsecGraph("g1", nffg.TechVM)); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		for _, tech := range []nffg.Technology{nffg.TechNative, nffg.TechVM} {
			if err := o.Reflavor("g1", "vpn", tech); err != nil {
				t.Fatal(err)
			}
		}
	})
	t.Logf("%.0f allocs per reflavor round trip (ceiling %d)", allocs, ceiling)
	if allocs > ceiling {
		t.Errorf("%.0f allocs per reflavor round trip, ceiling %d", allocs, ceiling)
	}
}

// TestConfigUpdateAllocCeiling pins what a config-only Update of a graph
// sharing the native firewall allocates: the NNF manager re-programs the
// graph's mark paths in place, and the steering is committed once. A round
// trip (two updates) reads 106 allocs (170 while the steering was swapped
// straight into the switch, 166 while the graph diff compared NFs and rules
// with reflection, 122 while the journal formatted each NF event's detail
// when recorded and the NNF plugin kept an audit log); the ceiling is that
// plus 10%. With the restart put back — stop the graph's attachment,
// release and re-acquire its marks, rewire LSI-0 — it read 464.
func TestConfigUpdateAllocCeiling(t *testing.T) {
	const ceiling = 117
	o := newNode(t)
	if err := o.Deploy(firewallGraph("gB", 200, "")); err != nil {
		t.Fatal(err)
	}
	versions := [2]*nffg.Graph{
		firewallGraph("gA", 100, "drop proto=udp dport=53"),
		firewallGraph("gA", 100, "drop proto=tcp dport=22;drop proto=udp dport=53"),
	}
	if err := o.Deploy(versions[0]); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		for _, g := range []*nffg.Graph{versions[1], versions[0]} {
			if err := o.Update(g); err != nil {
				t.Fatal(err)
			}
		}
	})
	t.Logf("%.0f allocs per config-update round trip (ceiling %d)", allocs, ceiling)
	if allocs > ceiling {
		t.Errorf("%.0f allocs per config-update round trip, ceiling %d", allocs, ceiling)
	}
}

// TestDeployBytesCeiling pins the bytes one Deploy + Undeploy of a three-NF
// chain allocates on one node: the LSI, its virtual links to LSI-0, the NF
// port pairs, the flow programming and the teardown of all of it. It read 325
// KB while every port allocated an 18 KB RX ring up front, 35 KB once a port
// allocated its ring only when a frame queues on it (every port here has a
// handler), 33 KB once each LSI's entry set was one commit instead of a
// FLOW_MOD, a table clone and a publish per entry, 26.4 KB once a port
// attach or detach stored one slot of the port table instead of copying the
// table and rebuilding its index, 24.4 KB once an LSI's OpenFlow channel
// was a synchronous call into its agent instead of a net.Pipe with a
// goroutine at each end, and 21.3-21.6 KB since an LSI's lane and latency
// histogram, a one-member NF set's bucket map and the local channel's
// connection state are built only when used, and 20.1-20.3 KB since the
// journal renders an NF event's detail when it is read and names are joined
// instead of formatted; the ceiling is the larger figure plus 10%. The
// journal grows on use until it holds its depth, once per node, so the
// warm-up fills it.
func TestDeployBytesCeiling(t *testing.T) {
	const (
		rounds    = 30
		ceilingKB = 22.3
	)
	o := newNode(t)
	lifecycle := func() {
		if err := o.Deploy(fwChainGraph("g1", 3, nffg.TechDocker)); err != nil {
			t.Fatal(err)
		}
		if err := o.Undeploy("g1"); err != nil {
			t.Fatal(err)
		}
	}
	lifecycle() // warm one-time caches (images, registries, pools)
	for o.Journal().Total() < telemetry.DefaultJournalDepth {
		lifecycle() // and fill the journal, which grows until it holds its depth
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < rounds; i++ {
		lifecycle()
	}
	runtime.ReadMemStats(&after)
	kb := float64(after.TotalAlloc-before.TotalAlloc) / 1024 / rounds
	t.Logf("%.1f KB allocated per deploy+undeploy (ceiling %.1f KB)", kb, ceilingKB)
	if kb > ceilingKB {
		t.Errorf("%.1f KB allocated per deploy+undeploy, ceiling %.1f KB", kb, ceilingKB)
	}
}
