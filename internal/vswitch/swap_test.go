package vswitch

import (
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/netdev"
)

func TestSwapFlowsReplacesByCookie(t *testing.T) {
	sw := New("lsi", 1)
	hosts := rig(t, sw, 3)
	mustAdd(t, sw, &FlowEntry{Cookie: 7, Match: MatchAll().WithInPort(1), Actions: []Action{Output(2)}})
	mustAdd(t, sw, &FlowEntry{Cookie: 9, Match: MatchAll().WithInPort(2), Actions: []Action{Output(1)}})

	removed, err := sw.SwapFlows(7, []*FlowEntry{
		{Cookie: 7, Match: MatchAll().WithInPort(1), Actions: []Action{Output(3)}},
		{Cookie: 11, Match: MatchAll().WithInPort(3), Actions: []Action{Output(1)}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if removed != 1 {
		t.Fatalf("removed = %d, want 1", removed)
	}
	if got := len(sw.Flows()); got != 3 {
		t.Fatalf("flows after swap = %d, want 3", got)
	}
	// Port-1 ingress now goes to port 3; the untouched cookie-9 entry still
	// forwards 2 -> 1.
	if err := hosts[0].Send(netdev.Frame{Data: frame(t, 0, 80)}); err != nil {
		t.Fatal(err)
	}
	if _, ok := hosts[2].TryRecv(); !ok {
		t.Fatal("swapped entry did not steer 1->3")
	}
	if _, ok := hosts[1].TryRecv(); ok {
		t.Fatal("stale pre-swap entry still forwarding 1->2")
	}
	if err := hosts[1].Send(netdev.Frame{Data: frame(t, 0, 80)}); err != nil {
		t.Fatal(err)
	}
	if _, ok := hosts[0].TryRecv(); !ok {
		t.Fatal("unrelated cookie was disturbed by the swap")
	}
}

func TestSwapFlowsValidatesEntries(t *testing.T) {
	sw := New("lsi", 1)
	mustAdd(t, sw, &FlowEntry{Cookie: 1, Match: MatchAll().WithVLAN(4095)})
	for _, e := range []*FlowEntry{
		{Cookie: 1, Match: MatchAll().WithVLAN(4096)},
		{Cookie: 1, Actions: []Action{PushVLAN(5000), Output(2)}},
	} {
		if _, err := sw.SwapFlows(1, []*FlowEntry{e}); err == nil {
			t.Errorf("%v accepted: a VLAN ID must fit 12 bits", e)
		}
		if err := sw.AddFlow(e); err == nil {
			t.Errorf("AddFlow accepted %v", e)
		}
	}
	if got := sw.Flows(); len(got) != 1 || got[0].Cookie != 1 {
		t.Errorf("a refused swap changed the table: %v", got)
	}
}

// CommitFlows deletes several cookies and adds in one publish, validates
// every added entry before touching the table, and publishes nothing for a
// commit that changes nothing.
func TestCommitFlowsPublishesOnce(t *testing.T) {
	sw := New("lsi", 1)
	for c := uint64(1); c <= 3; c++ {
		mustAdd(t, sw, &FlowEntry{Cookie: c, Match: MatchAll().WithInPort(uint32(c))})
	}
	pubs := sw.Telemetry().Publishes
	if pubs != 3 {
		t.Fatalf("%d publishes after 3 adds, want 3", pubs)
	}
	removed, err := sw.CommitFlows([]uint64{1, 2, 99}, []*FlowEntry{
		{Cookie: 4, Priority: 5, Match: MatchAll().WithInPort(4)},
		{Cookie: 4, Priority: 5, Match: MatchAll().WithInPort(5)},
	})
	if err != nil || removed != 2 {
		t.Fatalf("CommitFlows = %d, %v; want 2 removed", removed, err)
	}
	if got := sw.Telemetry().Publishes; got != pubs+1 {
		t.Errorf("%d publishes after one commit, want %d", got, pubs+1)
	}
	table := sw.Flows()
	if len(table) != 3 || table[0].Cookie != 4 || table[2].Cookie != 3 {
		t.Errorf("table = %v, want cookie 4's two entries ahead of cookie 3's", table)
	}
	gen := sw.CacheStats().Generation
	if _, err := sw.CommitFlows([]uint64{3, 4}, []*FlowEntry{
		{Cookie: 5, Match: MatchAll().WithInPort(6)},
		{Cookie: 5, Actions: []Action{PushVLAN(5000)}},
	}); err == nil {
		t.Error("a commit with an entry that does not fit 12 bits was accepted")
	}
	if _, err := sw.CommitFlows([]uint64{99}, nil); err != nil {
		t.Fatal(err)
	}
	if got := sw.Flows(); len(got) != len(table) || got[0] != table[0] || got[2] != table[2] {
		t.Errorf("a refused or empty commit changed the table: %v", got)
	}
	if got := sw.Telemetry().Publishes; got != pubs+1 || sw.CacheStats().Generation != gen {
		t.Errorf("a refused or empty commit published: %d publishes, generation %d -> %d", got, gen, sw.CacheStats().Generation)
	}
}

// TestSwapFlowsZeroGap hammers the swap under continuous traffic: every
// frame must be forwarded — by the old rule set or the new one — and none
// dropped, because each packet sees exactly one complete snapshot.
func TestSwapFlowsZeroGap(t *testing.T) {
	sw := New("lsi", 1)
	hosts := rig(t, sw, 3)
	var delivered atomic.Uint64
	count := func(netdev.Frame) { delivered.Add(1) }
	hosts[1].SetHandler(count)
	hosts[2].SetHandler(count)
	mustAdd(t, sw, &FlowEntry{Cookie: 1, Match: MatchAll().WithInPort(1), Actions: []Action{Output(2)}})

	const frames = 20000
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		data := frame(t, 0, 80)
		for i := 0; i < frames; i++ {
			_ = hosts[0].Send(netdev.Frame{Data: data})
		}
	}()
	// Flip the steering between ports 2 and 3 as fast as possible while the
	// sender runs.
	out := uint32(3)
	for i := 0; i < 500; i++ {
		if _, err := sw.SwapFlows(1, []*FlowEntry{
			{Cookie: 1, Match: MatchAll().WithInPort(1), Actions: []Action{Output(out)}},
		}); err != nil {
			t.Fatal(err)
		}
		out = 5 - out // 2 <-> 3
	}
	wg.Wait()

	if got := delivered.Load(); got != frames {
		t.Fatalf("delivered %d of %d frames across swaps", got, frames)
	}
	tel := sw.Telemetry()
	if tel.Drops != 0 || tel.Misses != 0 {
		t.Fatalf("drops=%d misses=%d during swaps, want 0", tel.Drops, tel.Misses)
	}
}
