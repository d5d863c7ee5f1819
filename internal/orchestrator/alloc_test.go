//go:build !race

// Allocation counts differ under the race detector's instrumentation.

package orchestrator

import (
	"testing"

	"repro/internal/nffg"
)

// TestReflavorAllocCeiling pins what one make-before-break hot-swap round
// trip (VM -> native -> VM, the shape of BenchmarkReflavor) allocates. It
// read 421 before the single-transition refactor, 515-524 after it (a second
// reprogram and the per-swap bucket-move maps), and 488-489 since a switch
// holds one flow table (no per-table slices and sorts per swap); the ceiling
// is that count plus 10%, so the next fifty cannot arrive unnoticed. Lower it
// when the count comes down.
func TestReflavorAllocCeiling(t *testing.T) {
	const ceiling = 537
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
