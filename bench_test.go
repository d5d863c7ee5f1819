// Benchmark harness regenerating the paper's evaluation artifacts.
//
// One benchmark (family) exists per table/figure plus the A1-A4 ablations
// (README, "Paper evaluation: Table 1, ablations, cost model"):
//
//	BenchmarkTable1Throughput/{KVM-QEMU,Docker,NativeNF}  Table 1, column 1
//	BenchmarkTable1ThroughputDecap/{...}                  Table 1, decap path
//	BenchmarkTable1RAM/{...}                              Table 1, column 2
//	BenchmarkTable1ImageSize/{...}                        Table 1, column 3
//	BenchmarkFigure1GraphDeployment                       Figure 1 (structure)
//	BenchmarkAblationSharableNNF/tenants-N                A1
//	BenchmarkAblationAdaptationLayer/{direct,adapted}     A2
//	BenchmarkAblationPacketPath/{flavor}-{size}           A3
//	BenchmarkAblationStartupLatency/{...}                 A4
//	BenchmarkGlobalFleetDeployment                        multi-node control plane
//	BenchmarkCrossNodeThroughput                          multi-node datapath
//	BenchmarkGlobalReconcile                              reconcile-pass cost
//
// Simulated figures are emitted as custom metrics (Mbps-sim, MB, ms-sim);
// wall-clock ns/op measures this Go implementation itself.
package un_test

import (
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"

	un "repro"
	"repro/internal/bench"
	"repro/internal/execenv"
	"repro/internal/global"
	"repro/internal/measure"
	"repro/internal/netdev"
	"repro/internal/nf"
	"repro/internal/pkt"
	"repro/internal/vswitch"
)

func benchName(platform string) string {
	return strings.ReplaceAll(strings.ReplaceAll(platform, "/", "-"), " ", "")
}

// BenchmarkTable1Throughput regenerates Table 1's throughput column: the
// IPsec chain deployed per flavor, MTU frames LAN -> WAN (encapsulation).
func BenchmarkTable1Throughput(b *testing.B) {
	for _, f := range bench.Table1Flavors {
		f := f
		b.Run(benchName(f.Platform), func(b *testing.B) {
			node, err := un.NewNode(un.Config{})
			if err != nil {
				b.Fatal(err)
			}
			defer node.Close()
			if err := node.Deploy(bench.IPsecGraph("t1", f.Tech)); err != nil {
				b.Fatal(err)
			}
			lan, _ := node.InterfacePort("eth0")
			wan, _ := node.InterfacePort("eth1")
			b.SetBytes(1500)
			b.ResetTimer()
			rep, err := measure.Run(lan, wan, node.Clock(), measure.Spec{
				Packets: b.N, FrameSize: 1500,
			})
			b.StopTimer()
			if err != nil {
				b.Fatal(err)
			}
			if rep.LossRate() > 0 {
				b.Fatalf("loss %.2f%%", rep.LossRate()*100)
			}
			b.ReportMetric(rep.MbpsGoodput(), "Mbps-sim")
			paper := bench.PaperTable1[f.Platform].Mbps
			b.ReportMetric(paper, "Mbps-paper")
			b.ReportMetric(node.DatapathCacheStats().HitRate(), "cache-hit-rate")
		})
	}
}

// pipelineRig builds a switch with one injection port (1) and one sink port
// (2) whose far ends are returned for sending and draining.
func pipelineRig(b *testing.B) (*vswitch.Switch, *netdev.Port, *netdev.Port) {
	b.Helper()
	sw := vswitch.New("bench", 1)
	in, swIn := netdev.Veth("in", "sw-in")
	sink, swSink := netdev.Veth("sink", "sw-sink")
	if err := sw.AddPort(1, swIn); err != nil {
		b.Fatal(err)
	}
	if err := sw.AddPort(2, swSink); err != nil {
		b.Fatal(err)
	}
	// The sink consumes synchronously so no queue fills up.
	sink.SetHandler(func(f netdev.Frame) { pkt.PutBuffer(f.Data) })
	return sw, in, sink
}

func benchFrame(b *testing.B, l4Dst uint16) []byte {
	b.Helper()
	f, err := pkt.BuildFrame(pkt.FrameSpec{
		SrcMAC: pkt.MAC{2, 0, 0, 0, 0, 1}, DstMAC: pkt.MAC{2, 0, 0, 0, 0, 2},
		SrcIP: pkt.Addr{10, 0, 0, 1}, DstIP: pkt.Addr{10, 0, 0, 2},
		SrcPort: 40000, DstPort: l4Dst, PayloadLen: 64,
	})
	if err != nil {
		b.Fatal(err)
	}
	return f
}

// BenchmarkPipelineCached isolates the two datapath regimes: "hit" is the
// steady state of one microflow (every packet replays a cached verdict),
// "miss" forces a fresh microflow per packet (slow path + verdict insert).
func BenchmarkPipelineCached(b *testing.B) {
	b.Run("hit", func(b *testing.B) {
		sw, in, _ := pipelineRig(b)
		if err := sw.AddFlow(&vswitch.FlowEntry{
			Match: vswitch.MatchAll().WithInPort(1), Actions: []vswitch.Action{vswitch.Output(2)},
		}); err != nil {
			b.Fatal(err)
		}
		data := benchFrame(b, 5001)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			_ = in.Send(netdev.Frame{Data: data})
		}
		b.StopTimer()
		cs := sw.CacheStats()
		b.ReportMetric(cs.HitRate(), "cache-hit-rate")
	})
	b.Run("miss", func(b *testing.B) {
		sw, in, _ := pipelineRig(b)
		if err := sw.AddFlow(&vswitch.FlowEntry{
			Match: vswitch.MatchAll().WithInPort(1), Actions: []vswitch.Action{vswitch.Output(2)},
		}); err != nil {
			b.Fatal(err)
		}
		data := benchFrame(b, 5001)
		// Vary the L4 source port (and an IP source octet beyond 64k
		// iterations) every packet: each is a new microflow.
		l4SrcOff := pkt.EthernetHeaderLen + pkt.IPv4HeaderLen
		ipSrcOff := pkt.EthernetHeaderLen + 12
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			data[l4SrcOff] = byte(i >> 8)
			data[l4SrcOff+1] = byte(i)
			data[ipSrcOff+2] = byte(i >> 16)
			_ = in.Send(netdev.Frame{Data: data})
		}
		b.StopTimer()
		cs := sw.CacheStats()
		b.ReportMetric(cs.HitRate(), "cache-hit-rate")
	})
}

// BenchmarkPipelineParallel measures the worker-pool datapath: N
// run-to-completion workers, each fed by its own lock-free ring, with
// injecting goroutines (one per GOMAXPROCS) spraying 512 distinct microflows
// that the RSS steering hash spreads across the workers. Inject applies
// backpressure when a ring fills, so ns/op tracks the pipeline's actual
// processing rate; on a multi-core runner throughput should scale
// near-linearly with the worker count until the core count is exhausted.
func BenchmarkPipelineParallel(b *testing.B) {
	for _, workers := range []int{1, 2, 4, 8} {
		workers := workers
		b.Run(fmt.Sprintf("%d", workers), func(b *testing.B) {
			sw := vswitch.NewOptions("bench", 1, vswitch.Options{Workers: workers})
			defer sw.Close()
			_, swIn := netdev.Veth("in", "sw-in")
			sink, swSink := netdev.Veth("sink", "sw-sink")
			if err := sw.AddPort(1, swIn); err != nil {
				b.Fatal(err)
			}
			if err := sw.AddPort(2, swSink); err != nil {
				b.Fatal(err)
			}
			sink.SetHandler(func(f netdev.Frame) { pkt.PutBuffer(f.Data) })
			if err := sw.AddFlow(&vswitch.FlowEntry{
				Match: vswitch.MatchAll().WithInPort(1), Actions: []vswitch.Action{vswitch.Output(2)},
			}); err != nil {
				b.Fatal(err)
			}
			const nFlows = 512
			frames := make([][]byte, nFlows)
			for i := range frames {
				frames[i] = benchFrame(b, uint16(10000+i))
			}
			var seed atomic.Uint32
			b.ReportAllocs()
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				i := int(seed.Add(1)) * 7919
				for pb.Next() {
					sw.Inject(1, frames[i%nFlows])
					i++
				}
			})
			// The rings may still hold steered frames: the benchmark is done
			// when the workers have processed all of them.
			for sw.PacketsProcessed() < uint64(b.N) {
				runtime.Gosched()
			}
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
// buys; the zero-alloc ceiling is gated in CI.
func BenchmarkPipelineBurst(b *testing.B) {
	for _, workers := range []int{0, 1, 4} {
		for _, batch := range []int{1, 8, 32} {
			workers, batch := workers, batch
			b.Run(fmt.Sprintf("%dx%d", workers, batch), func(b *testing.B) {
				// The benchmark compares steering paths at a pinned cache-hit
				// rate of 1.0: a seed-dependent cache-slot collision between
				// two flows would thrash their slot and drown the signal, so
				// the rig warms every flow and rebuilds the switch (fresh
				// hash seed) until the whole flow set replays from the cache.
				const nFlows = 64
				frames := make([][]byte, nFlows)
				for i := range frames {
					frames[i] = benchFrame(b, uint16(20000+i))
				}
				var sw *vswitch.Switch
				var in *netdev.Port
				for attempt := 0; ; attempt++ {
					if attempt == 10 {
						b.Fatal("no collision-free cache seed in 10 attempts")
					}
					sw = vswitch.NewOptions("bench", 1, vswitch.Options{Workers: workers})
					var swIn, swSink *netdev.Port
					in, swIn = netdev.Veth("in", "sw-in")
					var sink *netdev.Port
					sink, swSink = netdev.Veth("sink", "sw-sink")
					if err := sw.AddPort(1, swIn); err != nil {
						b.Fatal(err)
					}
					if err := sw.AddPort(2, swSink); err != nil {
						b.Fatal(err)
					}
					// Coalesced egress arrives as bursts; both handlers recycle.
					sink.SetHandler(func(f netdev.Frame) { pkt.PutBuffer(f.Data) })
					sink.SetBatchHandler(func(fs []netdev.Frame) {
						for i := range fs {
							pkt.PutBuffer(fs[i].Data)
						}
					})
					if err := sw.AddFlow(&vswitch.FlowEntry{
						Match: vswitch.MatchAll().WithInPort(1), Actions: []vswitch.Action{vswitch.Output(2)},
					}); err != nil {
						b.Fatal(err)
					}
					// Warm pass installs every flow's verdict, second pass
					// must replay all of them; a collision leaves a miss.
					for pass := 0; pass < 2; pass++ {
						for i := range frames {
							_ = in.Send(netdev.Frame{Data: frames[i]})
						}
					}
					for sw.PacketsProcessed()+sw.Drops() < 2*nFlows {
						runtime.Gosched()
					}
					if cs := sw.CacheStats(); cs.Hits >= nFlows {
						break
					}
					sw.Close()
				}
				defer sw.Close()
				warmed := sw.PacketsProcessed() + sw.Drops()
				warmStats := sw.CacheStats()
				burst := make([]netdev.Frame, batch)
				var sent uint64
				b.ReportAllocs()
				b.ResetTimer()
				if batch == 1 {
					for i := 0; i < b.N; i++ {
						_ = in.Send(netdev.Frame{Data: frames[i%nFlows]})
					}
					sent = uint64(b.N)
				} else {
					fi := 0
					for n := 0; n < b.N; n += batch {
						for k := range burst {
							burst[k] = netdev.Frame{Data: frames[fi%nFlows]}
							fi++
						}
						if _, err := in.SendBatch(burst); err != nil {
							b.Fatal(err)
						}
						sent += uint64(batch)
					}
				}
				// Port RX tail-drops under overload (NIC semantics), so the
				// rings are drained when processed + drops covers everything
				// sent. Drops() aggregates without allocating.
				for sw.PacketsProcessed()+sw.Drops() < warmed+sent {
					runtime.Gosched()
				}
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

// BenchmarkPipelineFlows measures one packet traversing a table holding N
// flow entries whose match is the last to be reached by the linear slow-path
// scan — with the microflow cache on (amortized O(1)) and off (O(N) per
// packet). The cached/uncached ratio at 4096 flows is the headline speedup
// of the fast-path refactor.
func BenchmarkPipelineFlows(b *testing.B) {
	for _, flows := range []int{16, 256, 4096} {
		flows := flows
		for _, mode := range []struct {
			name   string
			cached bool
		}{{"cached", true}, {"uncached", false}} {
			mode := mode
			b.Run(fmt.Sprintf("%d/%s", flows, mode.name), func(b *testing.B) {
				sw, in, _ := pipelineRig(b)
				sw.SetCacheEnabled(mode.cached)
				for i := 0; i < flows; i++ {
					err := sw.AddFlow(&vswitch.FlowEntry{
						Match:   vswitch.MatchAll().WithL4Dst(uint16(1000 + i)),
						Actions: []vswitch.Action{vswitch.Output(2)},
					})
					if err != nil {
						b.Fatal(err)
					}
				}
				// Target the last-scanned entry: the worst case for the
				// linear slow path.
				data := benchFrame(b, uint16(1000+flows-1))
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					_ = in.Send(netdev.Frame{Data: data})
				}
			})
		}
	}
}

// BenchmarkTable1ThroughputDecap measures the reverse path: a simulated
// remote peer produces fresh ESP frames (outside the node's clock) and the
// node decapsulates them WAN -> LAN.
func BenchmarkTable1ThroughputDecap(b *testing.B) {
	for _, f := range bench.Table1Flavors {
		f := f
		b.Run(benchName(f.Platform), func(b *testing.B) {
			node, err := un.NewNode(un.Config{})
			if err != nil {
				b.Fatal(err)
			}
			defer node.Close()
			if err := node.Deploy(bench.IPsecGraph("t1", f.Tech)); err != nil {
				b.Fatal(err)
			}
			lan, _ := node.InterfacePort("eth0")
			wan, _ := node.InterfacePort("eth1")

			// The remote tunnel endpoint: same SPI/key, its own
			// sequence numbers, living off-node.
			key, err := nf.ParseSAKey("000102030405060708090a0b0c0d0e0f10111213")
			if err != nil {
				b.Fatal(err)
			}
			peerSA, err := nf.NewSA(4096, pkt.MustAddr("203.0.113.9"), pkt.MustAddr("192.0.2.1"), key)
			if err != nil {
				b.Fatal(err)
			}
			inner, err := measure.Spec{FrameSize: 1500}.Frame()
			if err != nil {
				b.Fatal(err)
			}
			innerIP := inner[pkt.EthernetHeaderLen:] // strip Ethernet

			clock := node.Clock()
			virtualStart := clock.Now()
			received := 0
			b.SetBytes(1500)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				outer, err := peerSA.Encapsulate(innerIP)
				if err != nil {
					b.Fatal(err)
				}
				frame, err := pkt.Serialize(pkt.SerializeOptions{},
					&pkt.Ethernet{
						SrcMAC:       pkt.MAC{2, 0, 0, 0, 0xee, 0x02},
						DstMAC:       pkt.MAC{2, 0, 0, 0, 0xee, 0x01},
						EthernetType: pkt.EthernetTypeIPv4,
					}, pkt.Payload(outer))
				if err != nil {
					b.Fatal(err)
				}
				if err := wan.Send(netdev.Frame{Data: frame}); err != nil {
					b.Fatal(err)
				}
				for {
					if _, ok := lan.TryRecv(); !ok {
						break
					}
					received++
				}
			}
			b.StopTimer()
			if received == 0 {
				b.Fatal("nothing decapsulated")
			}
			virtual := clock.Now() - virtualStart
			if virtual > 0 {
				mbps := float64(received) * 1500 * 8 / virtual.Seconds() / 1e6
				b.ReportMetric(mbps, "Mbps-sim")
			}
		})
	}
}

// BenchmarkTable1RAM regenerates Table 1's RAM column.
func BenchmarkTable1RAM(b *testing.B) {
	for _, f := range bench.Table1Flavors {
		f := f
		b.Run(benchName(f.Platform), func(b *testing.B) {
			var ram uint64
			for i := 0; i < b.N; i++ {
				node, err := un.NewNode(un.Config{})
				if err != nil {
					b.Fatal(err)
				}
				if err := node.Deploy(bench.IPsecGraph("t1", f.Tech)); err != nil {
					node.Close()
					b.Fatal(err)
				}
				ram, _ = node.InstanceRAM("t1", "vpn")
				node.Close()
			}
			b.ReportMetric(float64(ram)/un.MB, "MB")
			b.ReportMetric(bench.PaperTable1[f.Platform].RAMMB, "MB-paper")
		})
	}
}

// BenchmarkTable1ImageSize regenerates Table 1's image size column,
// including the pull cost through the image store.
func BenchmarkTable1ImageSize(b *testing.B) {
	for _, f := range bench.Table1Flavors {
		f := f
		b.Run(benchName(f.Platform), func(b *testing.B) {
			node, err := un.NewNode(un.Config{})
			if err != nil {
				b.Fatal(err)
			}
			defer node.Close()
			var size uint64
			for i := 0; i < b.N; i++ {
				size, err = node.ImageDiskSize(f.Image)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(size)/un.MB, "MB")
			b.ReportMetric(bench.PaperTable1[f.Platform].ImageMB, "MB-paper")
		})
	}
}

// BenchmarkFigure1GraphDeployment measures standing up the Figure 1
// architecture: one node, two service graphs (IPsec + shared firewall),
// full steering.
func BenchmarkFigure1GraphDeployment(b *testing.B) {
	for i := 0; i < b.N; i++ {
		node, err := un.NewNode(un.Config{})
		if err != nil {
			b.Fatal(err)
		}
		if err := node.Deploy(bench.IPsecGraph("customer1", un.TechNative)); err != nil {
			b.Fatal(err)
		}
		if err := node.Deploy(bench.FirewallGraph("customer2", 150, un.TechNative)); err != nil {
			b.Fatal(err)
		}
		topo := node.Topology()
		if len(topo.Graphs) != 2 {
			b.Fatal("figure 1 structure incomplete")
		}
		node.Close()
	}
}

// BenchmarkAblationSharableNNF quantifies design choice A1: RAM and
// throughput of N tenants sharing one native firewall vs N containers.
func BenchmarkAblationSharableNNF(b *testing.B) {
	for _, tenants := range []int{2, 4, 8} {
		tenants := tenants
		b.Run(fmt.Sprintf("tenants-%d", tenants), func(b *testing.B) {
			var res bench.SharableResult
			var err error
			for i := 0; i < b.N; i++ {
				res, err = bench.SharableNNF(tenants, 200)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(res.SharedRAMMB, "MB-shared")
			b.ReportMetric(res.ExclusiveRAMMB, "MB-exclusive")
			b.ReportMetric(res.SharedMbps, "Mbps-shared")
			b.ReportMetric(res.ExclusiveMbps, "Mbps-exclusive")
		})
	}
}

// BenchmarkAblationAdaptationLayer quantifies design choice A2: the cost of
// the single-interface adaptation layer per packet, wall clock.
func BenchmarkAblationAdaptationLayer(b *testing.B) {
	model := execenv.Default()
	frame, err := measure.Spec{FrameSize: 1500, VLANID: 3000}.Frame()
	if err != nil {
		b.Fatal(err)
	}
	b.Run("direct", func(b *testing.B) {
		env, _ := execenv.New("d", execenv.FlavorNative, model, nil)
		rt := nf.NewRuntime("d", nf.NewFirewall(), env, 2)
		rt.Start()
		defer rt.Stop()
		tx := netdev.NewPortQueueLen("tx", 64)
		rx := netdev.NewPortQueueLen("rx", 64)
		if err := netdev.Connect(tx, rt.Port(0)); err != nil {
			b.Fatal(err)
		}
		if err := netdev.Connect(rx, rt.Port(1)); err != nil {
			b.Fatal(err)
		}
		b.SetBytes(1500)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			_ = tx.Send(netdev.Frame{Data: frame})
			for {
				if _, ok := rx.TryRecv(); !ok {
					break
				}
			}
		}
	})
	b.Run("adapted", func(b *testing.B) {
		adapterBench(b, frame)
	})
}

func adapterBench(b *testing.B, frame []byte) {
	b.Helper()
	res, err := bench.AdaptationLayer(b.N)
	if err != nil {
		b.Fatal(err)
	}
	_ = frame
	b.ReportMetric(res.AdaptedNsPerPkt, "ns-adapted/pkt")
	b.ReportMetric(res.DirectNsPerPkt, "ns-direct/pkt")
}

// BenchmarkAblationPacketPath sweeps frame sizes per flavor (A3): the
// crossover behaviour of per-packet tax vs per-byte crypto.
func BenchmarkAblationPacketPath(b *testing.B) {
	for _, size := range []int{64, 256, 512, 1024, 1500} {
		rows := bench.PacketPathSweep([]int{size})
		row := rows[0]
		for _, fl := range []struct {
			name string
			mbps float64
		}{
			{"native", row.NativeMbps},
			{"docker", row.DockerMbps},
			{"vm", row.VMMbps},
			{"dpdk", row.DPDKMbps},
		} {
			fl := fl
			b.Run(fmt.Sprintf("%s-%dB", fl.name, size), func(b *testing.B) {
				// The model is closed-form; exercise the real
				// charge path for b.N packets.
				env, err := execenv.New("x", execenv.Flavor(flavorOf(fl.name)), execenv.Default(), nil)
				if err != nil {
					b.Fatal(err)
				}
				buf := make([]byte, size)
				b.SetBytes(int64(size))
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					_, _ = env.ProcessPacket(buf, size)
				}
				b.ReportMetric(fl.mbps, "Mbps-sim")
			})
		}
	}
}

func flavorOf(name string) string {
	if name == "dpdk" {
		return "dpdk"
	}
	return name
}

// BenchmarkAblationStartupLatency regenerates A4: simulated NF start
// latency per flavor, through a real deploy.
func BenchmarkAblationStartupLatency(b *testing.B) {
	for _, f := range bench.Table1Flavors {
		f := f
		b.Run(benchName(f.Platform), func(b *testing.B) {
			var lastMs float64
			for i := 0; i < b.N; i++ {
				node, err := un.NewNode(un.Config{})
				if err != nil {
					b.Fatal(err)
				}
				before := node.Clock().Now()
				if err := node.Deploy(bench.IPsecGraph("g", f.Tech)); err != nil {
					node.Close()
					b.Fatal(err)
				}
				lastMs = float64((node.Clock().Now() - before).Milliseconds())
				node.Close()
			}
			b.ReportMetric(lastMs, "ms-sim")
		})
	}
}

// multiNodeFleet assembles the 3-node line fleet used by the global
// orchestrator benchmarks: lan on n1, wan on n3, patched trunk links.
func multiNodeFleet(b *testing.B, cpuMillis int) (*global.Orchestrator, map[string]*un.Node, func()) {
	b.Helper()
	caps := []string{"docker", "nnf:firewall", "nnf:monitor", "nnf:bridge"}
	mk := func(name string, ifaces []string) *un.Node {
		n, err := un.NewNode(un.Config{
			Name: name, Interfaces: ifaces,
			CPUMillis: cpuMillis, RAMBytes: 1 << 30, Capabilities: caps,
		})
		if err != nil {
			b.Fatal(err)
		}
		return n
	}
	nodes := map[string]*un.Node{
		"n1": mk("n1", []string{"lan", "x12"}),
		"n2": mk("n2", []string{"x12", "x23"}),
		"n3": mk("n3", []string{"x23", "wan"}),
	}
	orch := global.New(global.Config{})
	for _, name := range []string{"n1", "n2", "n3"} {
		if err := orch.AddNode(global.NewLocalNode(name, nodes[name])); err != nil {
			b.Fatal(err)
		}
	}
	var unpatch []func()
	patch := func(a, bn, iface string) {
		pa, _ := nodes[a].InterfacePort(iface)
		pb, _ := nodes[bn].InterfacePort(iface)
		unpatch = append(unpatch, global.Patch(pa, pb))
		if err := orch.Link(a, iface, bn, iface); err != nil {
			b.Fatal(err)
		}
	}
	patch("n1", "n2", "x12")
	patch("n2", "n3", "x23")
	cleanup := func() {
		for _, u := range unpatch {
			u()
		}
		for _, n := range nodes {
			n.Close()
		}
	}
	return orch, nodes, cleanup
}

// globalChain builds the linear firewall/monitor/bridge chain between lan
// and wan used by the multi-node benchmarks.
func globalChain(id string, nfs int) *un.Graph {
	templates := []string{"firewall", "monitor", "bridge"}
	g := &un.Graph{ID: id}
	for i := 0; i < nfs; i++ {
		g.NFs = append(g.NFs, un.NF{
			ID:    fmt.Sprintf("nf%d", i),
			Name:  templates[i%len(templates)],
			Ports: []un.NFPort{{ID: "0"}, {ID: "1"}},
		})
	}
	g.Endpoints = []un.Endpoint{
		{ID: "lan", Type: un.EPInterface, Interface: "lan"},
		{ID: "wan", Type: un.EPInterface, Interface: "wan"},
	}
	prev := un.EndpointRef("lan")
	for i := 0; i < nfs; i++ {
		g.Rules = append(g.Rules, un.FlowRule{
			ID: fmt.Sprintf("r%d", i), Priority: 10,
			Match:   un.RuleMatch{PortIn: prev},
			Actions: []un.RuleAction{{Type: un.ActOutput, Output: un.NFPortRef(fmt.Sprintf("nf%d", i), "0")}},
		})
		prev = un.NFPortRef(fmt.Sprintf("nf%d", i), "1")
	}
	g.Rules = append(g.Rules, un.FlowRule{
		ID: "r-out", Priority: 10,
		Match:   un.RuleMatch{PortIn: prev},
		Actions: []un.RuleAction{{Type: un.ActOutput, Output: un.EndpointRef("wan")}},
	})
	return g
}

// BenchmarkGlobalFleetDeployment measures the global control plane: placing
// a 6-NF chain over a 3-node fleet (bin-packing, splitting, stitching,
// per-node deployment) and tearing it down again.
func BenchmarkGlobalFleetDeployment(b *testing.B) {
	orch, _, cleanup := multiNodeFleet(b, 250)
	defer cleanup()
	g := globalChain("svc", 6)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := orch.Deploy(g); err != nil {
			b.Fatal(err)
		}
		if err := orch.Undeploy("svc"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCrossNodeThroughput measures the datapath across the fleet: MTU
// frames entering n1, traversing the 6-NF chain over two inter-node
// stitches, leaving n3.
func BenchmarkCrossNodeThroughput(b *testing.B) {
	orch, nodes, cleanup := multiNodeFleet(b, 250)
	defer cleanup()
	if err := orch.Deploy(globalChain("svc", 6)); err != nil {
		b.Fatal(err)
	}
	frame := pkt.MustBuildFrame(pkt.FrameSpec{
		SrcMAC: pkt.MAC{2, 0, 0, 0, 0, 1}, DstMAC: pkt.MAC{2, 0, 0, 0, 0, 2},
		SrcIP: pkt.Addr{10, 0, 0, 1}, DstIP: pkt.Addr{10, 0, 0, 2},
		SrcPort: 40000, DstPort: 5001, PayloadLen: 1400,
	})
	lan, _ := nodes["n1"].InterfacePort("lan")
	wan, _ := nodes["n3"].InterfacePort("wan")
	received := 0
	b.SetBytes(int64(len(frame)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := lan.Send(netdev.Frame{Data: frame}); err != nil {
			b.Fatal(err)
		}
		if _, ok := wan.TryRecv(); ok {
			received++
		}
	}
	b.StopTimer()
	if received != b.N {
		b.Fatalf("delivered %d of %d frames across the fleet", received, b.N)
	}
}

// BenchmarkGlobalReconcile measures one steady-state reconcile pass over a
// healthy 3-node fleet carrying one spanning graph: the fixed cost of the
// availability machinery.
func BenchmarkGlobalReconcile(b *testing.B) {
	orch, _, cleanup := multiNodeFleet(b, 250)
	defer cleanup()
	if err := orch.Deploy(globalChain("svc", 6)); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		orch.ReconcileOnce()
	}
}

// benchChain builds eth0 -> fw0 -> ... -> fw(n-1) -> eth1 with every NF
// pinned to the given technology.
func benchChain(id string, n int, tech un.Technology) *un.Graph {
	g := &un.Graph{
		ID: id,
		Endpoints: []un.Endpoint{
			{ID: "in", Type: un.EPInterface, Interface: "eth0"},
			{ID: "out", Type: un.EPInterface, Interface: "eth1"},
		},
	}
	for i := 0; i < n; i++ {
		g.NFs = append(g.NFs, un.NF{
			ID: fmt.Sprintf("fw%d", i), Name: "firewall",
			Ports:                []un.NFPort{{ID: "0"}, {ID: "1"}},
			TechnologyPreference: tech,
		})
	}
	prev := un.EndpointRef("in")
	for i := 0; i < n; i++ {
		g.Rules = append(g.Rules, un.FlowRule{
			ID: fmt.Sprintf("r%d", i), Priority: 10,
			Match:   un.RuleMatch{PortIn: prev},
			Actions: []un.RuleAction{{Type: un.ActOutput, Output: un.NFPortRef(g.NFs[i].ID, "0")}},
		})
		prev = un.NFPortRef(g.NFs[i].ID, "1")
	}
	g.Rules = append(g.Rules, un.FlowRule{
		ID: "r-out", Priority: 10,
		Match:   un.RuleMatch{PortIn: prev},
		Actions: []un.RuleAction{{Type: un.ActOutput, Output: un.EndpointRef("out")}},
	})
	return g
}

// BenchmarkParallelDeploy measures the wall-clock deployment of one 8-NF
// graph with serialized vs concurrent NF starts, under emulated
// provisioning latency (2% of each flavor's simulated boot time: 6ms per
// Docker container). The parallel case is the orchestrator default; the
// serial case pins MaxParallelStarts to 1, i.e. the seed's behavior.
func BenchmarkParallelDeploy(b *testing.B) {
	for _, mode := range []struct {
		name string
		par  int
	}{{"serial", 1}, {"parallel", 8}} {
		b.Run(mode.name, func(b *testing.B) {
			node, err := un.NewNode(un.Config{
				Name:              "bench-" + mode.name,
				CPUMillis:         64000,
				StartupWallScale:  0.02,
				MaxParallelStarts: mode.par,
			})
			if err != nil {
				b.Fatal(err)
			}
			defer node.Close()
			g := benchChain("par", 8, un.TechDocker)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := node.Deploy(g); err != nil {
					b.Fatal(err)
				}
				if err := node.Undeploy("par"); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkReflavor measures one make-before-break NF hot-swap round trip
// (VM -> native -> VM per iteration, so the graph ends each iteration where
// it started), including the atomic steering swap and the drain of the
// outgoing instance.
func BenchmarkReflavor(b *testing.B) {
	node, err := un.NewNode(un.Config{Name: "bench-reflavor"})
	if err != nil {
		b.Fatal(err)
	}
	defer node.Close()
	if err := node.Deploy(bench.IPsecGraph("vpn", un.TechVM)); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := node.Reflavor("vpn", "vpn", un.TechNative); err != nil {
			b.Fatal(err)
		}
		if err := node.Reflavor("vpn", "vpn", un.TechVM); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(2, "swaps/op")
}

// natScaleGraph shards a source NAT between eth0 (LAN) and eth1 (WAN)
// across a replica set of the given size.
func natScaleGraph(id string, replicas int) *un.Graph {
	return &un.Graph{
		ID: id,
		NFs: []un.NF{{
			ID: "nat", Name: "nat",
			Ports:                []un.NFPort{{ID: "0"}, {ID: "1"}},
			TechnologyPreference: un.TechDocker,
			Config:               map[string]string{"external_ip": "198.51.100.1"},
			Replicas:             replicas,
		}},
		Endpoints: []un.Endpoint{
			{ID: "lan", Type: un.EPInterface, Interface: "eth0"},
			{ID: "wan", Type: un.EPInterface, Interface: "eth1"},
		},
		Rules: []un.FlowRule{
			{ID: "r1", Priority: 10,
				Match:   un.RuleMatch{PortIn: un.EndpointRef("lan")},
				Actions: []un.RuleAction{{Type: un.ActOutput, Output: un.NFPortRef("nat", "0")}}},
			{ID: "r2", Priority: 10,
				Match:   un.RuleMatch{PortIn: un.NFPortRef("nat", "1")},
				Actions: []un.RuleAction{{Type: un.ActOutput, Output: un.EndpointRef("wan")}}},
			{ID: "r3", Priority: 10,
				Match:   un.RuleMatch{PortIn: un.EndpointRef("wan")},
				Actions: []un.RuleAction{{Type: un.ActOutput, Output: un.NFPortRef("nat", "1")}}},
			{ID: "r4", Priority: 10,
				Match:   un.RuleMatch{PortIn: un.NFPortRef("nat", "0")},
				Actions: []un.RuleAction{{Type: un.ActOutput, Output: un.EndpointRef("lan")}}},
		},
	}
}

// natScaleFrames prebuilds one MTU frame per flow, spread across source
// ports so the bucket hash fans the flows over every replica.
func natScaleFrames(b *testing.B, flows int) [][]byte {
	b.Helper()
	frames := make([][]byte, flows)
	for i := range frames {
		f, err := pkt.BuildFrame(pkt.FrameSpec{
			SrcMAC: pkt.MAC{2, 0, 0, 0, 0, 1}, DstMAC: pkt.MAC{2, 0, 0, 0, 0, 2},
			SrcIP: pkt.Addr{10, 0, 0, byte(i + 1)}, DstIP: pkt.Addr{203, 0, 113, 50},
			SrcPort: uint16(30000 + i), DstPort: 53, PayloadLen: 1458,
		})
		if err != nil {
			b.Fatal(err)
		}
		frames[i] = f
	}
	return frames
}

// BenchmarkScaleOutThroughput measures the stateful-NAT datapath with the
// NF sharded across replica sets of different sizes: 64 concurrent flows,
// MTU frames, LAN -> WAN. The replicas-1 case is the single-instance
// baseline the scale-out steering overhead is judged against.
func BenchmarkScaleOutThroughput(b *testing.B) {
	for _, replicas := range []int{1, 3} {
		b.Run(fmt.Sprintf("replicas-%d", replicas), func(b *testing.B) {
			node, err := un.NewNode(un.Config{})
			if err != nil {
				b.Fatal(err)
			}
			defer node.Close()
			if err := node.Deploy(natScaleGraph("scale-tp", replicas)); err != nil {
				b.Fatal(err)
			}
			lan, _ := node.InterfacePort("eth0")
			wan, _ := node.InterfacePort("eth1")
			var rx atomic.Uint64
			wan.SetHandler(func(netdev.Frame) { rx.Add(1) })
			defer wan.SetHandler(nil)
			frames := natScaleFrames(b, 64)
			b.SetBytes(1500)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := lan.Send(netdev.Frame{Data: frames[i%len(frames)]}); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			if got := rx.Load(); got != uint64(b.N) {
				b.Fatalf("lost packets: sent %d, delivered %d", b.N, got)
			}
		})
	}
}

// BenchmarkStateMigration measures one live flow-state migration round trip
// (scale 1 -> 3 -> 1 per iteration, so the graph ends each iteration where
// it started) with 64 established NAT bindings to export, re-home and
// import, including both atomic steering swaps and the instance drains.
func BenchmarkStateMigration(b *testing.B) {
	node, err := un.NewNode(un.Config{Name: "bench-migrate"})
	if err != nil {
		b.Fatal(err)
	}
	defer node.Close()
	if err := node.Deploy(natScaleGraph("scale-mig", 1)); err != nil {
		b.Fatal(err)
	}
	lan, _ := node.InterfacePort("eth0")
	wan, _ := node.InterfacePort("eth1")
	wan.SetHandler(func(netdev.Frame) {})
	defer wan.SetHandler(nil)
	for _, f := range natScaleFrames(b, 64) {
		if err := lan.Send(netdev.Frame{Data: f}); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := node.Scale("scale-mig", "nat", 3); err != nil {
			b.Fatal(err)
		}
		if err := node.Scale("scale-mig", "nat", 1); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(2, "resizes/op")
	b.ReportMetric(64, "bindings")
}
