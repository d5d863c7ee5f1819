//go:build !race

// The race detector makes sync.Pool drop a quarter of what is put back, so
// recycled frame buffers would read as allocations: the gate runs without it.

package vswitch

import (
	"fmt"
	"testing"

	"repro/internal/netdev"
)

// TestHitPathZeroAllocs is the hard gate on the datapath's hot path: a frame
// whose verdict is cached is forwarded without one heap allocation, whether
// it arrives alone or in a burst, and whether the lane runs inline or behind
// worker rings. "hit" is one microflow sent frame by frame; the rest spread
// 64 microflows over {workers}x{burst}. AllocsPerRun counts the mallocs of
// the whole process, so the worker goroutines are covered, and each run waits
// for the rings to drain before it ends.
func TestHitPathZeroAllocs(t *testing.T) {
	type gate struct {
		name                  string
		workers, burst, flows int
	}
	gates := []gate{{"hit", 0, 1, 1}}
	for _, workers := range laneModes {
		for _, burst := range []int{1, 8, 32} {
			gates = append(gates, gate{fmt.Sprintf("%dx%d", workers, burst), workers, burst, 64})
		}
	}
	for _, g := range gates {
		g := g
		t.Run(g.name, func(t *testing.T) {
			sw, in, frames := hitRig(t, g.workers, g.flows)
			burst := make([]netdev.Frame, g.burst)
			sent := sw.PacketsProcessed() + sw.Drops()
			allocs := testing.AllocsPerRun(200, func() {
				sendBurst(t, in, burst, frames, int(sent))
				sent += uint64(g.burst)
				drain(sw, sent)
			})
			if allocs != 0 {
				t.Errorf("%.0f allocs per burst of %d cached frames, want 0", allocs, g.burst)
			}
			if cs := sw.CacheStats(); cs.Misses > uint64(g.flows) {
				t.Errorf("cache stats %+v: the gate measured misses, not the hit path", cs)
			}
		})
	}
}
