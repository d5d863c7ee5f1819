//go:build !race

// Allocation counts differ under the race detector's instrumentation.

package netdev

import (
	"runtime"
	"testing"
)

// TestTryRecvWithoutRingAllocatesNothing pins that polling a port that never
// queued a frame neither allocates its RX ring nor anything else.
func TestTryRecvWithoutRingAllocatesNothing(t *testing.T) {
	_, b := Veth("a", "b")
	allocs := testing.AllocsPerRun(100, func() {
		if _, ok := b.TryRecv(); ok {
			t.Fatal("TryRecv returned a frame on a port that never queued")
		}
	})
	if allocs != 0 {
		t.Errorf("TryRecv allocated %.0f times, want 0", allocs)
	}
	if b.queue.Load() != nil {
		t.Error("the RX ring exists on a port that never queued")
	}
}

// TestPortBytesCeiling pins what a port costs before any frame queues on it:
// the port itself and its state snapshots, not a DefaultQueueLen ring (18 KB
// of pointerful frames) that a port with a handler never reads.
func TestPortBytesCeiling(t *testing.T) {
	const rounds, ceiling = 200, 1024
	keep := make([]*Port, 0, 3*rounds)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < rounds; i++ {
		a, b := Veth("a", "b")
		keep = append(keep, a, b, NewPort("c"))
	}
	runtime.ReadMemStats(&after)
	perPort := float64(after.TotalAlloc-before.TotalAlloc) / float64(len(keep))
	t.Logf("%.0f B allocated per port (ceiling %d)", perPort, ceiling)
	if perPort > ceiling {
		t.Errorf("%.0f B allocated per port, ceiling %d", perPort, ceiling)
	}
}
