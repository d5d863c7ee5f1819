package vswitch

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"

	"repro/internal/netdev"
	"repro/internal/pkt"
)

// The two benchmarks here are what `make profile` and the nightly multi-core
// job run; the hard zero-alloc gate over the same rig is TestHitPathZeroAllocs
// (alloc_test.go), part of `go test ./...`.

// forwardRig is a switch forwarding port 1 to a sink on port 2 that recycles
// every delivered buffer; the far end of port 1 is returned for sending.
func forwardRig(tb testing.TB, workers int) (*Switch, *netdev.Port) {
	tb.Helper()
	sw := NewOptions("bench", 1, Options{Workers: workers})
	in, swIn := netdev.Veth("in", "sw-in")
	sink, swOut := netdev.Veth("sink", "sw-out")
	// Coalesced egress arrives as bursts; both handlers recycle.
	sink.SetHandler(func(f netdev.Frame) { pkt.PutBuffer(f.Data) })
	sink.SetBatchHandler(func(fs []netdev.Frame) {
		for i := range fs {
			pkt.PutBuffer(fs[i].Data)
		}
	})
	for num, p := range map[uint32]*netdev.Port{1: swIn, 2: swOut} {
		if err := sw.AddPort(num, p); err != nil {
			tb.Fatal(err)
		}
	}
	if err := sw.AddFlow(&FlowEntry{Match: MatchAll().WithInPort(1), Actions: []Action{Output(2)}}); err != nil {
		tb.Fatal(err)
	}
	return sw, in
}

// benchFrames builds n frames of distinct microflows (UDP destination ports
// from base up).
func benchFrames(tb testing.TB, n int, base uint16) [][]byte {
	tb.Helper()
	frames := make([][]byte, n)
	for i := range frames {
		frames[i] = frame(tb, 0, base+uint16(i))
	}
	return frames
}

// hitRig is a forwardRig pinned at a cache-hit rate of 1.0 over the returned
// flow set: a cache slot shared by two flows would make both miss (and
// allocate a verdict) on every frame and drown whatever is being measured, so
// the rig warms every flow and rebuilds the switch under a fresh hash seed
// until the second pass over the set replays from the cache entirely.
func hitRig(tb testing.TB, workers, flows int) (*Switch, *netdev.Port, [][]byte) {
	tb.Helper()
	frames := benchFrames(tb, flows, 20000)
	for attempt := 0; attempt < 10; attempt++ {
		sw, in := forwardRig(tb, workers)
		for pass := 0; pass < 2; pass++ {
			for i := range frames {
				_ = in.Send(netdev.Frame{Data: frames[i]})
			}
		}
		drain(sw, uint64(2*flows))
		if sw.CacheStats().Hits >= uint64(flows) {
			tb.Cleanup(sw.Close)
			return sw, in, frames
		}
		sw.Close()
	}
	tb.Fatal("no collision-free cache seed in 10 attempts")
	return nil, nil, nil
}

// drain waits until the switch has accounted for total frames since it was
// built. Port RX and the worker rings tail-drop under overload (NIC
// semantics), so processed + drops is what converges; neither read allocates.
func drain(sw *Switch, total uint64) {
	for sw.PacketsProcessed()+sw.Drops() < total {
		runtime.Gosched()
	}
}

// sendBurst fills burst with the next len(burst) frames of the flow set and
// sends it, as a single Send when the burst is one frame.
func sendBurst(tb testing.TB, in *netdev.Port, burst []netdev.Frame, frames [][]byte, next int) {
	for k := range burst {
		burst[k] = netdev.Frame{Data: frames[(next+k)%len(frames)]}
	}
	if len(burst) == 1 {
		_ = in.Send(burst[0])
	} else if _, err := in.SendBatch(burst); err != nil {
		tb.Fatal(err)
	}
}

// BenchmarkPipelineParallel measures the worker-pool datapath: N
// run-to-completion workers, each fed by its own lock-free ring, with
// injecting goroutines (one per GOMAXPROCS) spraying 512 distinct microflows
// that the RSS steering hash spreads across the workers. Inject applies
// backpressure when a ring fills, so ns/op tracks the pipeline's actual
// processing rate. It answers what unbench cannot on the 2-vCPU box that
// judges PRs: whether throughput scales with the worker count on a
// multi-core runner (the nightly job's scaling-efficiency table).
func BenchmarkPipelineParallel(b *testing.B) {
	for _, workers := range []int{1, 2, 4, 8} {
		workers := workers
		b.Run(fmt.Sprintf("%d", workers), func(b *testing.B) {
			sw, _ := forwardRig(b, workers)
			defer sw.Close()
			frames := benchFrames(b, 512, 10000)
			var seed atomic.Uint32
			b.ReportAllocs()
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				i := int(seed.Add(1)) * 7919
				for pb.Next() {
					sw.Inject(1, frames[i%len(frames)])
					i++
				}
			})
			// The rings may still hold steered frames: the benchmark is done
			// when the workers have processed all of them.
			drain(sw, uint64(b.N))
			b.StopTimer()
			b.ReportMetric(sw.CacheStats().HitRate(), "cache-hit-rate")
		})
	}
}

// BenchmarkPipelineBurst measures burst execution end to end, wherever the
// lane runs: {workers}x{batch} sends b.N frames over 64 microflows into a
// switch whose lane runs inline (workers 0) or behind 1 or 4 worker rings,
// as single frames (batch 1 — a burst of one) or as SendBatch bursts (one
// cache-generation load, one stats flush and one SendBatch per egress port
// per burst; behind rings also one ring operation and at most one wakeup per
// worker). The ns/op delta between Nx1 and Nx32 is the amortization a burst
// buys, which unbench's fixed-burst workloads do not vary; it is also the
// profile target of `make profile`.
func BenchmarkPipelineBurst(b *testing.B) {
	for _, workers := range laneModes {
		for _, batch := range []int{1, 8, 32} {
			workers, batch := workers, batch
			b.Run(fmt.Sprintf("%dx%d", workers, batch), func(b *testing.B) {
				sw, in, frames := hitRig(b, workers, 64)
				warmed := sw.PacketsProcessed() + sw.Drops()
				warmStats := sw.CacheStats()
				burst := make([]netdev.Frame, batch)
				sent := 0
				b.ReportAllocs()
				b.ResetTimer()
				for ; sent < b.N; sent += batch {
					sendBurst(b, in, burst, frames, sent)
				}
				drain(sw, warmed+uint64(sent))
				b.StopTimer()
				var coalesced, flushes uint64
				for _, ws := range sw.WorkerTelemetry() {
					coalesced += ws.TxCoalesced
					flushes += ws.TxFlushes
				}
				if flushes > 0 {
					b.ReportMetric(float64(coalesced)/float64(flushes), "tx-frames/flush")
				}
				// Hit rate over the measured region only (warmup misses
				// excluded): anything under 1.000 means the collision-free
				// warmup failed to pin the cache.
				cs := sw.CacheStats()
				cs.Hits -= warmStats.Hits
				cs.Misses -= warmStats.Misses
				b.ReportMetric(cs.HitRate(), "cache-hit-rate")
			})
		}
	}
}
