package vswitch

import (
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/netdev"
)

// TestConcurrentProcessAndFlowMods hammers the packet path from several
// senders while flow-mods churn the tables, then verifies (a) no torn reads
// (the race detector covers this) and (b) that no stale cached verdict
// survives the final flow state: once the override flow is gone for good,
// every probe must follow the baseline path.
func TestConcurrentProcessAndFlowMods(t *testing.T) {
	sw := New("lsi", 1)
	padToCache(t, sw)
	in, swIn := netdev.Veth("in", "sw-in")
	if err := sw.AddPort(1, swIn); err != nil {
		t.Fatal(err)
	}
	var base, override atomic.Uint64
	for num, counter := range map[uint32]*atomic.Uint64{2: &base, 3: &override} {
		host, swSide := netdev.Veth("host", "sw")
		c := counter
		host.SetHandler(func(netdev.Frame) { c.Add(1) })
		if err := sw.AddPort(num, swSide); err != nil {
			t.Fatal(err)
		}
	}
	mustAdd(t, sw, &FlowEntry{Priority: 1, Cookie: 1, Match: MatchAll(), Actions: []Action{Output(2)}})

	const (
		senders       = 4
		perSender     = 2000
		mutatorRounds = 500
	)
	data := frame(t, 0, 80)
	var wg sync.WaitGroup
	for g := 0; g < senders; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perSender; i++ {
				_ = in.Send(netdev.Frame{Data: data})
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < mutatorRounds; i++ {
			if err := sw.AddFlow(&FlowEntry{Priority: 10, Cookie: 2, Match: MatchAll(), Actions: []Action{Output(3)}}); err != nil {
				t.Error(err)
				return
			}
			sw.DeleteFlows(2)
		}
	}()
	wg.Wait()

	total := base.Load() + override.Load()
	if total != senders*perSender {
		t.Fatalf("delivered %d of %d frames (torn table read?)", total, senders*perSender)
	}
	if sw.PacketsProcessed() != senders*perSender {
		t.Fatalf("pipeline counter = %d, want %d", sw.PacketsProcessed(), senders*perSender)
	}

	// Final state: only the baseline remains. Any probe still steered to
	// port 3 would mean a stale cached verdict survived a flow-mod.
	overrideBefore := override.Load()
	baseBefore := base.Load()
	const probes = 200
	for i := 0; i < probes; i++ {
		_ = in.Send(netdev.Frame{Data: data})
	}
	if got := base.Load() - baseBefore; got != probes {
		t.Errorf("baseline received %d of %d probes", got, probes)
	}
	if got := override.Load() - overrideBefore; got != 0 {
		t.Errorf("%d probes steered by a stale cached verdict", got)
	}
}

// TestConcurrentPortChurn exercises the lock-free port snapshot: senders keep
// outputting to a stable port and to one that attaches and detaches.
func TestConcurrentPortChurn(t *testing.T) {
	sw := New("lsi", 1)
	in, swIn := netdev.Veth("in", "sw-in")
	if err := sw.AddPort(1, swIn); err != nil {
		t.Fatal(err)
	}
	sink, swSink := netdev.Veth("sink", "sw-sink")
	var got atomic.Uint64
	sink.SetHandler(func(netdev.Frame) { got.Add(1) })
	if err := sw.AddPort(2, swSink); err != nil {
		t.Fatal(err)
	}
	mustAdd(t, sw, &FlowEntry{Match: MatchAll(), Actions: []Action{Output(2), Output(9)}})

	data := frame(t, 0, 80)
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < 2000; i++ {
			_ = in.Send(netdev.Frame{Data: data})
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 200; i++ {
			h, s := netdev.Veth("churn", "sw-churn")
			if err := sw.AddPort(9, s); err != nil {
				t.Error(err)
				return
			}
			_ = sw.RemovePort(9)
			netdev.Disconnect(h)
		}
	}()
	wg.Wait()
	if got.Load() != 2000 {
		t.Errorf("stable sink received %d of 2000 frames", got.Load())
	}
}
