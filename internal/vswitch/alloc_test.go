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
// is forwarded without one heap allocation, whether its verdict is cached or
// its table is walked, whether it arrives alone or in a burst, and whether
// the lane runs inline or behind worker rings. "hit" is one microflow sent
// frame by frame; {workers}x{burst} spread 64 microflows over a cache-worthy
// table; "walk/…" send them through a table below cacheMinEntries; "fanout"
// outputs each of them to two ports. AllocsPerRun counts the mallocs of the whole
// process, so the worker goroutines are covered, and each run waits for the
// rings to drain before it ends.
func TestHitPathZeroAllocs(t *testing.T) {
	type gate struct {
		name                  string
		workers, burst, flows int
		walk, fanout          bool
	}
	gates := []gate{{name: "hit", burst: 1, flows: 1}}
	for _, workers := range laneModes {
		for _, burst := range []int{1, 8, 32} {
			gates = append(gates, gate{name: fmt.Sprintf("%dx%d", workers, burst), workers: workers, burst: burst, flows: 64})
		}
	}
	for _, workers := range laneModes {
		gates = append(gates, gate{name: fmt.Sprintf("walk/%dx32", workers), workers: workers, burst: 32, flows: 64, walk: true})
	}
	gates = append(gates, gate{name: "fanout", burst: 8, flows: 64, walk: true, fanout: true})
	for _, g := range gates {
		g := g
		t.Run(g.name, func(t *testing.T) {
			var sw *Switch
			var in *netdev.Port
			var frames [][]byte
			if g.walk {
				sw, in = forwardRig(t, g.workers, false)
				t.Cleanup(sw.Close)
				frames = benchFrames(t, g.flows, 20000)
				if g.fanout {
					addSink(t, sw, 3)
					if _, err := sw.SwapFlows(0, []*FlowEntry{{Match: MatchAll(), Actions: []Action{Output(2), Output(3)}}}); err != nil {
						t.Fatal(err)
					}
				}
			} else {
				sw, in, frames = hitRig(t, g.workers, g.flows)
			}
			burst := make([]netdev.Frame, g.burst)
			sent := sw.PacketsProcessed() + sw.Drops()
			allocs := testing.AllocsPerRun(200, func() {
				sendBurst(t, in, burst, frames, int(sent))
				sent += uint64(g.burst)
				drain(sw, sent)
			})
			if allocs != 0 {
				t.Errorf("%.0f allocs per burst of %d frames, want 0", allocs, g.burst)
			}
			cs := sw.CacheStats()
			if cached := sw.table.Load().cached; cached == g.walk {
				t.Fatalf("table cached=%v, but the gate measures walk=%v", cached, g.walk)
			}
			switch {
			case g.walk && (cs.Entries != 0 || cs.Hits != 0):
				t.Errorf("cache stats %+v: a walked switch must hold and serve no verdict", cs)
			case !g.walk && (cs.Hits == 0 || cs.Misses > uint64(g.flows)):
				t.Errorf("cache stats %+v: the gate measured misses, not the hit path", cs)
			}
			if g.fanout {
				if tx := sw.Port(3).Stats().TxPackets; tx < 200*uint64(g.burst) {
					t.Errorf("port 3 transmitted %d frames, want every fanned-out frame", tx)
				}
			}
		})
	}
}

// TestEditPathZeroAllocs is the same gate on an entry that edits every frame:
// push_vlan, set_dl_dst, an output, pop_vlan and a second output. The first
// edit copies the frame into the burst's pooled edit buffer and the others
// rewrite it in place, so a tag or MAC edit allocates nothing, inline or
// behind rings, frame by frame or in bursts.
func TestEditPathZeroAllocs(t *testing.T) {
	for _, workers := range laneModes {
		for _, burstLen := range []int{1, 32} {
			t.Run(fmt.Sprintf("%dx%d", workers, burstLen), func(t *testing.T) {
				sw, in := forwardRig(t, workers, false)
				t.Cleanup(sw.Close)
				addSink(t, sw, 3)
				edit := []Action{PushVLAN(100), SetEthDst(macA), Output(3), PopVLAN(), Output(2)}
				if _, err := sw.SwapFlows(0, []*FlowEntry{{Match: MatchAll(), Actions: edit}}); err != nil {
					t.Fatal(err)
				}
				frames := benchFrames(t, 64, 20000)
				burst := make([]netdev.Frame, burstLen)
				sent := sw.PacketsProcessed() + sw.Drops()
				allocs := testing.AllocsPerRun(200, func() {
					sendBurst(t, in, burst, frames, int(sent))
					sent += uint64(burstLen)
					drain(sw, sent)
				})
				if allocs != 0 {
					t.Errorf("%.0f allocs per burst of %d edited frames, want 0", allocs, burstLen)
				}
				if tx := sw.Port(3).Stats().TxPackets; tx < 200*uint64(burstLen) {
					t.Errorf("port 3 transmitted %d frames, want every edited frame", tx)
				}
			})
		}
	}
}
