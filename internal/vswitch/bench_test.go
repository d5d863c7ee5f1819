package vswitch

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"

	"repro/internal/netdev"
	"repro/internal/pkt"
)

// BenchmarkPipelineParallel and BenchmarkPipelineBurst are what `make
// profile` and the nightly multi-core job run; the hard zero-alloc gate over
// the same rig is TestHitPathZeroAllocs (alloc_test.go), part of `go test
// ./...`. BenchmarkCacheCrossover is the measurement behind cacheMinEntries.

// forwardRig is a switch forwarding port 1 to a sink on port 2 that recycles
// every delivered buffer; the far end of port 1 is returned for sending. With
// cached set its table is padded to cache-worthiness (padToCache);
// otherwise the one forwarding entry is walked.
func forwardRig(tb testing.TB, workers int, cached bool) (*Switch, *netdev.Port) {
	tb.Helper()
	sw := NewOptions("bench", 1, Options{Workers: workers})
	in, swIn := netdev.Veth("in", "sw-in")
	if err := sw.AddPort(1, swIn); err != nil {
		tb.Fatal(err)
	}
	addSink(tb, sw, 2)
	if err := sw.AddFlow(&FlowEntry{Match: MatchAll().WithInPort(1), Actions: []Action{Output(2)}}); err != nil {
		tb.Fatal(err)
	}
	if cached {
		padToCache(tb, sw)
	}
	return sw, in
}

// addSink attaches port num to a sink that recycles every delivered buffer.
func addSink(tb testing.TB, sw *Switch, num uint32) {
	tb.Helper()
	sink, swOut := netdev.Veth("sink", "sw-out")
	// Coalesced egress arrives as bursts; both handlers recycle.
	sink.SetHandler(func(f netdev.Frame) { pkt.PutBuffer(f.Data) })
	sink.SetBatchHandler(func(fs []netdev.Frame) {
		for i := range fs {
			pkt.PutBuffer(fs[i].Data)
		}
	})
	if err := sw.AddPort(num, swOut); err != nil {
		tb.Fatal(err)
	}
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

// hitRig is a cache-worthy forwardRig pinned at a cache-hit rate of 1.0 over
// the returned flow set: a cache slot shared by two flows would make both
// miss (and allocate a verdict) on every frame and drown whatever is being
// measured, so the rig warms every flow and rebuilds the switch under a fresh
// hash seed until the second pass over the set replays from the cache
// entirely.
func hitRig(tb testing.TB, workers, flows int) (*Switch, *netdev.Port, [][]byte) {
	tb.Helper()
	frames := benchFrames(tb, flows, 20000)
	for attempt := 0; attempt < 10; attempt++ {
		sw, in := forwardRig(tb, workers, true)
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
			sw, _ := forwardRig(b, workers, true)
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

// BenchmarkCacheCrossover is the sweep behind cacheMinEntries. Over {rules}
// L4 entries (in-port, IP protocol and destination port, the shape of a
// forwarding graph's rules) whose matching entry is the last one walked, it
// times per frame the three things a frame can cost: a cached hit, a cached
// miss (probe, walk, record, verdict allocation; the generation is bumped
// before every burst) and the uncached walk. 1024 microflows in distinct
// cache slots go through an inline lane in bursts of 32, so the per-burst
// work is amortized and the regimes differ only in the lookup.
func BenchmarkCacheCrossover(b *testing.B) {
	const burstLen, flows, dst = 32, 1024, 9000
	for _, rules := range []int{4, 8, 16, 32, 64, 128, 256} {
		for _, mode := range []string{"hit", "miss", "walk"} {
			rules, mode := rules, mode
			b.Run(fmt.Sprintf("%d/%s", rules, mode), func(b *testing.B) {
				sw, in := forwardRig(b, 0, false)
				entries := make([]*FlowEntry, rules)
				for i := range entries {
					entries[i] = &FlowEntry{
						Match:   MatchAll().WithInPort(1).WithIPProto(pkt.IPProtocolUDP).WithL4Dst(uint16(dst - rules + 1 + i)),
						Actions: []Action{Output(2)},
					}
				}
				// The rig's own entry has cookie 0 too: the swap replaces it.
				if _, err := sw.SwapFlows(0, entries); err != nil {
					b.Fatal(err)
				}
				forceCached(sw, mode != "walk")
				burst := make([]netdev.Frame, burstLen)
				frames := slotDistinctFrames(b, sw, flows, dst)
				for sent := 0; sent < len(frames); sent += burstLen { // warm: records the verdicts
					sendBurst(b, in, burst, frames, sent)
				}
				warm := sw.CacheStats()
				b.ReportAllocs()
				b.ResetTimer()
				for sent := 0; sent < b.N; sent += burstLen {
					if mode == "miss" {
						sw.cache.invalidate()
					}
					sendBurst(b, in, burst, frames, sent)
				}
				b.StopTimer()
				if cs := sw.CacheStats(); (cs.Hits > warm.Hits) != (mode == "hit") {
					b.Fatalf("%s rig: cache stats %+v", mode, cs)
				}
			})
		}
	}
}

// slotDistinctFrames builds n frames to dst of distinct microflows (source
// ports) that occupy n distinct cache slots of the inline switch sw, so none
// evicts another's verdict.
func slotDistinctFrames(tb testing.TB, sw *Switch, n int, dst uint16) [][]byte {
	tb.Helper()
	taken := make(map[uint64]bool, n)
	var out [][]byte
	var k flowKey
	for src := uint16(1); len(out) < n; src++ {
		f, err := pkt.BuildFrame(pkt.FrameSpec{SrcMAC: macA, DstMAC: macB, SrcIP: ipA, DstIP: ipB,
			SrcPort: src, DstPort: dst, PayloadLen: 32})
		if err != nil {
			tb.Fatal(err)
		}
		if err := extractKey(f, 1, &k); err != nil {
			tb.Fatal(err)
		}
		slot := (k.hash(sw.cache.seed) >> 32) & (cacheSlots - 1)
		if !taken[slot] {
			taken[slot] = true
			out = append(out, f)
		}
	}
	return out
}

// forceCached republishes the switch's table with the cache decision set to
// on whatever their size, so one rig can time every regime.
func forceCached(sw *Switch, on bool) {
	sw.mu.Lock()
	defer sw.mu.Unlock()
	ft := *sw.table.Load()
	ft.cached = on
	if on {
		sw.cache.allocSlots()
	}
	sw.table.Store(&ft)
	sw.cache.invalidate()
}
