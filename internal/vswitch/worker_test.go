package vswitch

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/netdev"
)

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// poolRig builds a worker-pool switch with one ingress port and a counting
// sink on port 2.
func poolRig(t *testing.T, workers int) (sw *Switch, in *netdev.Port, delivered *atomic.Uint64) {
	t.Helper()
	sw = NewOptions("pool", 1, Options{Workers: workers})
	t.Cleanup(sw.Close)
	in, swIn := netdev.Veth("in", "sw-in")
	if err := sw.AddPort(1, swIn); err != nil {
		t.Fatal(err)
	}
	delivered = new(atomic.Uint64)
	sink, swOut := netdev.Veth("sink", "sw-out")
	sink.SetHandler(func(netdev.Frame) { delivered.Add(1) })
	if err := sw.AddPort(2, swOut); err != nil {
		t.Fatal(err)
	}
	mustAdd(t, sw, &FlowEntry{Match: MatchAll(), Actions: []Action{Output(2)}})
	return sw, in, delivered
}

func TestWorkerPoolForwards(t *testing.T) {
	sw, in, delivered := poolRig(t, 2)
	if sw.Workers() != 2 {
		t.Fatalf("Workers() = %d, want 2", sw.Workers())
	}
	const n = 500
	for i := 0; i < n; i++ {
		if err := in.Send(netdev.Frame{Data: frame(t, 0, uint16(1000+i%50))}); err != nil {
			t.Fatal(err)
		}
	}
	// A frame is counted as processed only after it was delivered.
	waitFor(t, "all frames processed", func() bool { return sw.PacketsProcessed() == n })
	if got := delivered.Load(); got != n {
		t.Errorf("delivered = %d, want %d", got, n)
	}
}

// TestWorkerSteeringAffinity sends one microflow and checks that exactly one
// worker processed it: the RSS steering hash must keep a flow on one core.
func TestWorkerSteeringAffinity(t *testing.T) {
	sw, in, delivered := poolRig(t, 4)
	const n = 200
	data := frame(t, 0, 80)
	for i := 0; i < n; i++ {
		if err := in.Send(netdev.Frame{Data: data}); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, "single-flow frames processed", func() bool { return sw.PacketsProcessed() == n })
	if got := delivered.Load(); got != n {
		t.Fatalf("delivered = %d, want %d", got, n)
	}
	busy := 0
	for _, ws := range sw.WorkerTelemetry() {
		if ws.Packets == n {
			busy++
		} else if ws.Packets != 0 {
			t.Errorf("worker processed %d of %d frames: flow split across workers", ws.Packets, n)
		}
	}
	if busy != 1 {
		t.Errorf("%d workers saw the flow, want exactly 1", busy)
	}
}

func TestWorkerPoolMalformedCounted(t *testing.T) {
	sw, in, _ := poolRig(t, 2)
	if err := in.Send(netdev.Frame{Data: []byte{1, 2, 3}}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "malformed frame counted", func() bool { return sw.Malformed() == 1 })
	if got := sw.Misses(); got != 0 {
		t.Errorf("Misses = %d, want 0: malformed frames never consult the table", got)
	}
	if got := sw.PacketsProcessed(); got != 1 {
		t.Errorf("PacketsProcessed = %d, want 1", got)
	}
	tel := sw.Telemetry()
	if tel.Malformed != 1 || tel.Drops != 1 {
		t.Errorf("telemetry malformed=%d drops=%d, want 1/1", tel.Malformed, tel.Drops)
	}
}

// TestWorkerRingTailDrop stalls the single worker behind a blocking egress
// handler, overfills its RX ring and checks that the overflow is tail-dropped
// and counted — NIC semantics — while nothing is lost silently.
func TestWorkerRingTailDrop(t *testing.T) {
	sw := NewOptions("pool", 1, Options{Workers: 1})
	t.Cleanup(sw.Close)
	in, swIn := netdev.Veth("in", "sw-in")
	if err := sw.AddPort(1, swIn); err != nil {
		t.Fatal(err)
	}
	release := make(chan struct{})
	var delivered atomic.Uint64
	blocked := make(chan struct{}, 1)
	sink, swOut := netdev.Veth("sink", "sw-out")
	sink.SetHandler(func(netdev.Frame) {
		if delivered.Add(1) == 1 {
			blocked <- struct{}{}
			<-release
		}
	})
	if err := sw.AddPort(2, swOut); err != nil {
		t.Fatal(err)
	}
	mustAdd(t, sw, &FlowEntry{Match: MatchAll(), Actions: []Action{Output(2)}})

	data := frame(t, 0, 80)
	if err := in.Send(netdev.Frame{Data: data}); err != nil {
		t.Fatal(err)
	}
	<-blocked // the worker is now stuck inside the egress handler
	sent := uint64(1)
	for i := 0; i < workerRingLen+64; i++ {
		if err := in.Send(netdev.Frame{Data: data}); err != nil {
			t.Fatal(err)
		}
		sent++
	}
	close(release)
	var drops uint64
	waitFor(t, "ring to drain", func() bool {
		drops = sw.WorkerTelemetry()[0].QueueDrops
		return delivered.Load()+drops == sent && sw.WorkerTelemetry()[0].QueueLen == 0
	})
	if drops == 0 {
		t.Error("overfilling the ring dropped nothing")
	}
	if tel := sw.Telemetry(); tel.Drops < drops {
		t.Errorf("switch drops %d < worker queue drops %d", tel.Drops, drops)
	}
}

// TestWorkerCloseDrains checks that Close completes everything already
// steered, is idempotent, and that the switch degrades to synchronous
// processing afterwards.
func TestWorkerCloseDrains(t *testing.T) {
	sw, _, delivered := poolRig(t, 2)
	const n = 300
	for i := 0; i < n; i++ {
		sw.Inject(1, frame(t, 0, uint16(2000+i%31)))
	}
	sw.Close()
	if got := delivered.Load(); got != n {
		t.Fatalf("delivered %d of %d after Close", got, n)
	}
	sw.Close() // idempotent
	sw.Inject(1, frame(t, 0, 80))
	if got := delivered.Load(); got != n+1 {
		t.Errorf("post-Close Inject not processed synchronously: delivered %d, want %d", got, n+1)
	}
}

func TestWorkerTelemetryShape(t *testing.T) {
	sw := NewOptions("pool", 1, Options{Workers: 3})
	defer sw.Close()
	ws := sw.WorkerTelemetry()
	if len(ws) != 3 {
		t.Fatalf("WorkerTelemetry len = %d, want 3", len(ws))
	}
	for i, w := range ws {
		if w.QueueCap != workerRingLen {
			t.Errorf("worker %d QueueCap = %d, want %d", i, w.QueueCap, workerRingLen)
		}
	}
	if syncSw := New("sync", 2); syncSw.WorkerTelemetry() != nil {
		t.Error("synchronous switch reports workers")
	}
	if tel := sw.Telemetry(); len(tel.Workers) != 3 {
		t.Errorf("Telemetry.Workers len = %d, want 3", len(tel.Workers))
	}
}

// TestWorkerPoolHammer injects from several goroutines while SwapFlows flips
// the egress between two sinks and the cache is toggled — every injected
// frame must come out exactly once (Inject applies backpressure, SwapFlows
// never exposes an empty rule set), with no verdict lost or duplicated.
func TestWorkerPoolHammer(t *testing.T) {
	sw := NewOptions("pool", 1, Options{Workers: 4})
	_, swIn := netdev.Veth("in", "sw-in")
	if err := sw.AddPort(1, swIn); err != nil {
		t.Fatal(err)
	}
	var sinkA, sinkB atomic.Uint64
	for num, counter := range map[uint32]*atomic.Uint64{2: &sinkA, 3: &sinkB} {
		host, swSide := netdev.Veth("host", "sw")
		c := counter
		host.SetHandler(func(netdev.Frame) { c.Add(1) })
		if err := sw.AddPort(num, swSide); err != nil {
			t.Fatal(err)
		}
	}
	mustAdd(t, sw, &FlowEntry{Cookie: 1, Match: MatchAll(), Actions: []Action{Output(2)}})

	const (
		senders   = 4
		perSender = 2000
		swaps     = 400
	)
	frames := make([][]byte, 97)
	for i := range frames {
		frames[i] = frame(t, 0, uint16(1000+i))
	}
	var wg sync.WaitGroup
	for g := 0; g < senders; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perSender; i++ {
				sw.Inject(1, frames[(g*perSender+i)%len(frames)])
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		cookie, out := uint64(1), uint32(3)
		for i := 0; i < swaps; i++ {
			next := cookie%2 + 1
			add := []*FlowEntry{{Cookie: next, Match: MatchAll(), Actions: []Action{Output(out)}}}
			if i%2 == 0 {
				// Every other rule set is big enough to cache: the switch
				// crosses cacheMinEntries both ways under traffic, and the
				// first crossing allocates the slot arrays while the
				// workers run.
				for range cacheMinEntries {
					add = append(add, &FlowEntry{Cookie: next, Match: MatchAll().WithInPort(999)})
				}
			}
			if _, err := sw.SwapFlows(cookie, add); err != nil {
				t.Error(err)
				return
			}
			cookie, out = next, 5-out
			if i%50 == 0 {
				sw.SetCacheEnabled(i%100 == 0)
			}
		}
		sw.SetCacheEnabled(true)
	}()
	wg.Wait()
	sw.Close() // drains every ring
	total := sinkA.Load() + sinkB.Load()
	if want := uint64(senders * perSender); total != want {
		t.Fatalf("delivered %d (A=%d B=%d), want exactly %d: frames lost or duplicated",
			total, sinkA.Load(), sinkB.Load(), want)
	}
	if got := sw.PacketsProcessed(); got != uint64(senders*perSender) {
		t.Errorf("PacketsProcessed = %d, want %d", got, senders*perSender)
	}
}

// TestWorkerPoolPartitionedCache checks that worker-mode cache partitions
// report a coherent aggregate: after traffic across many microflows, entries
// are resident and the hit counters add up across lanes.
func TestWorkerPoolPartitionedCache(t *testing.T) {
	sw, in, delivered := poolRig(t, 4)
	padToCache(t, sw)
	const flows, repeat = 64, 5
	for r := 0; r < repeat; r++ {
		for i := 0; i < flows; i++ {
			if err := in.Send(netdev.Frame{Data: frame(t, 0, uint16(3000+i))}); err != nil {
				t.Fatal(err)
			}
		}
	}
	waitFor(t, "all microflow frames processed", func() bool {
		return sw.PacketsProcessed() == flows*repeat
	})
	if got := delivered.Load(); got != flows*repeat {
		t.Fatalf("delivered = %d, want %d", got, flows*repeat)
	}
	cs := sw.CacheStats()
	if cs.Entries == 0 {
		t.Error("no resident cache entries after traffic")
	}
	if cs.Hits+cs.Misses != flows*repeat {
		t.Errorf("hits %d + misses %d != %d packets", cs.Hits, cs.Misses, flows*repeat)
	}
	if cs.Misses < flows {
		t.Errorf("misses %d < %d distinct flows", cs.Misses, flows)
	}
}
