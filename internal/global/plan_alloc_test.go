//go:build !race

// Allocation counts differ under the race detector's instrumentation.

package global_test

import "testing"

// TestPlanAllocCeiling pins what the dry-run placement of a deployed 6-NF
// chain over the 3-node line allocates. It read 228 while every placement
// probed every node and built maps of each node's capabilities and
// interfaces, of the links and of the chain's adjacency, and the policy
// sorted with a reflective swapper; 59 once placement planned from the fleet
// view over the statuses' own slices; 40 since the split keeps a node's
// subgraph when its piece comes out unchanged instead of building a copy to
// compare. The ceiling is that count plus 10%.
func TestPlanAllocCeiling(t *testing.T) {
	const ceiling = 44
	f := lineFleet(t, 250)
	g := firewallChain("svc", 6, 1)
	if err := f.g.Deploy(g); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(50, func() {
		if _, err := f.g.PlanDeploy(g); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("%.0f allocs per plan (ceiling %d)", allocs, ceiling)
	if allocs > ceiling {
		t.Errorf("%.0f allocs per plan, ceiling %d", allocs, ceiling)
	}
}
