package vswitch

import (
	"fmt"
	"testing"

	"repro/internal/netdev"
)

func cacheStats(t *testing.T, sw *Switch) CacheStats {
	t.Helper()
	return sw.CacheStats()
}

// padCookie tags the entries padToCache installs.
const padCookie = 0xbad

// padToCache installs cacheMinEntries entries that no test frame matches
// (they name an ingress port no rig attaches), so that whatever else the
// switch holds, its table is big enough to cache.
func padToCache(tb testing.TB, sw *Switch) {
	tb.Helper()
	pads := make([]*FlowEntry, cacheMinEntries)
	for i := range pads {
		pads[i] = &FlowEntry{Cookie: padCookie, Match: MatchAll().WithInPort(999)}
	}
	if _, err := sw.SwapFlows(padCookie, pads); err != nil {
		tb.Fatal(err)
	}
}

func TestCacheHitMissCounters(t *testing.T) {
	sw := New("lsi", 1)
	padToCache(t, sw)
	hosts := rig(t, sw, 2)
	mustAdd(t, sw, &FlowEntry{Match: MatchAll().WithInPort(1), Actions: []Action{Output(2)}})
	data := frame(t, 0, 80)
	for i := 0; i < 5; i++ {
		if err := hosts[0].Send(netdev.Frame{Data: data}); err != nil {
			t.Fatal(err)
		}
		if _, ok := hosts[1].TryRecv(); !ok {
			t.Fatalf("frame %d not forwarded", i)
		}
	}
	cs := cacheStats(t, sw)
	if cs.Misses != 1 || cs.Hits != 4 {
		t.Errorf("cache = %d hits / %d misses, want 4/1", cs.Hits, cs.Misses)
	}
	if cs.Entries != 1 {
		t.Errorf("entries = %d, want 1", cs.Entries)
	}
	if !cs.Enabled {
		t.Error("cache should default to enabled")
	}
	if got := cs.HitRate(); got != 0.8 {
		t.Errorf("hit rate = %v, want 0.8", got)
	}
}

func TestCacheDistinctMicroflows(t *testing.T) {
	sw := New("lsi", 1)
	padToCache(t, sw)
	hosts := rig(t, sw, 2)
	mustAdd(t, sw, &FlowEntry{Match: MatchAll(), Actions: []Action{Output(2)}})
	// Two different destination ports = two microflows = two slow paths.
	for _, dst := range []uint16{80, 443, 80, 443} {
		_ = hosts[0].Send(netdev.Frame{Data: frame(t, 0, dst)})
		hosts[1].TryRecv()
	}
	cs := cacheStats(t, sw)
	if cs.Misses != 2 || cs.Hits != 2 {
		t.Errorf("cache = %d hits / %d misses, want 2/2", cs.Hits, cs.Misses)
	}
	if cs.Entries != 2 {
		t.Errorf("entries = %d, want 2", cs.Entries)
	}
}

func TestCacheInvalidationOnFlowMod(t *testing.T) {
	sw := New("lsi", 1)
	hosts := rig(t, sw, 3)
	mustAdd(t, sw, &FlowEntry{Priority: 1, Cookie: 1, Match: MatchAll(), Actions: []Action{Output(2)}})
	data := frame(t, 0, 80)
	_ = hosts[0].Send(netdev.Frame{Data: data}) // populate the cache
	if _, ok := hosts[1].TryRecv(); !ok {
		t.Fatal("baseline flow not forwarding")
	}
	// A higher-priority flow must take over immediately: the cached
	// verdict (output:2) may not be served again.
	mustAdd(t, sw, &FlowEntry{Priority: 10, Cookie: 2, Match: MatchAll(), Actions: []Action{Output(3)}})
	_ = hosts[0].Send(netdev.Frame{Data: data})
	if _, ok := hosts[2].TryRecv(); !ok {
		t.Fatal("stale cached verdict served after AddFlow")
	}
	if _, ok := hosts[1].TryRecv(); ok {
		t.Fatal("old path also fired after AddFlow")
	}
	// Deleting the override must fall back to the baseline.
	if n := sw.DeleteFlows(2); n != 1 {
		t.Fatalf("DeleteFlows removed %d, want 1", n)
	}
	_ = hosts[0].Send(netdev.Frame{Data: data})
	if _, ok := hosts[1].TryRecv(); !ok {
		t.Fatal("stale cached verdict served after DeleteFlows")
	}
	cs := cacheStats(t, sw)
	if cs.Generation < 2 {
		t.Errorf("generation = %d, want >= 2 after two flow-mods", cs.Generation)
	}
}

func TestCacheInvalidationOnPortChange(t *testing.T) {
	sw := New("lsi", 1)
	hosts := rig(t, sw, 2)
	mustAdd(t, sw, &FlowEntry{Match: MatchAll(), Actions: []Action{Output(2)}})
	data := frame(t, 0, 80)
	_ = hosts[0].Send(netdev.Frame{Data: data})
	gen := sw.CacheStats().Generation
	host3, swSide := netdev.Veth("host3", "sw3")
	if err := sw.AddPort(3, swSide); err != nil {
		t.Fatal(err)
	}
	_ = host3 // attached only to provoke invalidation
	if got := sw.CacheStats().Generation; got <= gen {
		t.Errorf("generation = %d after AddPort, want > %d", got, gen)
	}
	gen = sw.CacheStats().Generation
	if err := sw.RemovePort(3); err != nil {
		t.Fatal(err)
	}
	if got := sw.CacheStats().Generation; got <= gen {
		t.Errorf("generation = %d after RemovePort, want > %d", got, gen)
	}
	// The datapath still works after the churn.
	_ = hosts[0].Send(netdev.Frame{Data: data})
	if _, ok := hosts[1].TryRecv(); !ok {
		t.Error("forwarding broken after port churn")
	}
}

func TestCacheDisabled(t *testing.T) {
	sw := New("lsi", 1)
	sw.SetCacheEnabled(false)
	hosts := rig(t, sw, 2)
	mustAdd(t, sw, &FlowEntry{Match: MatchAll(), Actions: []Action{Output(2)}})
	data := frame(t, 0, 80)
	for i := 0; i < 3; i++ {
		_ = hosts[0].Send(netdev.Frame{Data: data})
		if _, ok := hosts[1].TryRecv(); !ok {
			t.Fatalf("frame %d not forwarded with cache off", i)
		}
	}
	cs := cacheStats(t, sw)
	if cs.Hits != 0 || cs.Misses != 0 || cs.Entries != 0 {
		t.Errorf("disabled cache recorded activity: %+v", cs)
	}
	if cs.Enabled {
		t.Error("Enabled = true after SetCacheEnabled(false)")
	}
}

func TestCachedMissVerdictStillDropsAndCounts(t *testing.T) {
	sw := New("lsi", 1)
	padToCache(t, sw)
	hosts := rig(t, sw, 2)
	data := frame(t, 0, 80)
	for i := 0; i < 3; i++ {
		_ = hosts[0].Send(netdev.Frame{Data: data})
	}
	if sw.Misses() != 3 || sw.Drops() != 3 {
		t.Errorf("table misses / drops = %d / %d, want 3 / 3 (a cached miss must still count and drop)", sw.Misses(), sw.Drops())
	}
	cs := cacheStats(t, sw)
	if cs.Hits != 2 || cs.Misses != 1 {
		t.Errorf("cache = %d hits / %d misses, want 2/1", cs.Hits, cs.Misses)
	}
	// Installing a flow must invalidate the cached miss verdict.
	mustAdd(t, sw, &FlowEntry{Match: MatchAll().WithInPort(1), Actions: []Action{Output(2)}})
	_ = hosts[0].Send(netdev.Frame{Data: data})
	if _, ok := hosts[1].TryRecv(); !ok {
		t.Error("stale cached miss served after AddFlow")
	}
	if sw.Misses() != 3 {
		t.Errorf("table misses = %d after flow install, want still 3", sw.Misses())
	}
}

func TestCacheReplayKeepsFlowStats(t *testing.T) {
	sw := New("lsi", 1)
	hosts := rig(t, sw, 2)
	e := &FlowEntry{Match: MatchAll().WithInPort(1), Actions: []Action{Output(2)}}
	mustAdd(t, sw, e)
	data := frame(t, 0, 80)
	for i := 0; i < 5; i++ {
		_ = hosts[0].Send(netdev.Frame{Data: data})
		hosts[1].TryRecv()
	}
	p, b := e.Stats()
	if p != 5 || b != uint64(5*len(data)) {
		t.Errorf("entry stats = %d pkts %d bytes, want 5/%d (replay must count)", p, b, 5*len(data))
	}
}

func TestCacheReplayMatchesSlowPath(t *testing.T) {
	// A cached verdict whose entry rewrites and tags the frame must replay
	// identically to the slow path.
	sw := New("lsi", 1)
	padToCache(t, sw)
	hosts := rig(t, sw, 2)
	mustAdd(t, sw, &FlowEntry{Match: MatchAll().WithInPort(1),
		Actions: []Action{SetEthDst(macA), PushVLAN(42), Output(2)}})
	data := frame(t, 0, 80)
	var first, second []byte
	_ = hosts[0].Send(netdev.Frame{Data: data})
	if f, ok := hosts[1].TryRecv(); ok {
		first = f.Data
	} else {
		t.Fatal("slow path did not deliver")
	}
	_ = hosts[0].Send(netdev.Frame{Data: frame(t, 0, 80)})
	if f, ok := hosts[1].TryRecv(); ok {
		second = f.Data
	} else {
		t.Fatal("cached replay did not deliver")
	}
	if string(first) != string(second) {
		t.Error("replay produced different bytes than the slow path")
	}
	if cs := cacheStats(t, sw); cs.Hits != 1 {
		t.Errorf("hits = %d, want 1", cs.Hits)
	}
}

// TestWalkedSwitchCountsMissesAndCachesNothing pins what the counters mean
// on a switch below cacheMinEntries: every frame walks the table and counts
// as a cache miss, nothing is cached, and the flow entries still count.
func TestWalkedSwitchCountsMissesAndCachesNothing(t *testing.T) {
	sw := New("lsi", 1)
	hosts := rig(t, sw, 2)
	e := &FlowEntry{Match: MatchAll().WithInPort(1), Actions: []Action{Output(2)}}
	mustAdd(t, sw, e)
	data := frame(t, 0, 80)
	for i := 0; i < 5; i++ {
		_ = hosts[0].Send(netdev.Frame{Data: data})
		if _, ok := hosts[1].TryRecv(); !ok {
			t.Fatalf("frame %d not forwarded", i)
		}
	}
	cs := cacheStats(t, sw)
	if cs.Hits != 0 || cs.Misses != 5 || cs.Entries != 0 || !cs.Enabled {
		t.Errorf("cache stats %+v, want 0 hits / 5 misses / 0 entries, enabled", cs)
	}
	if p, _ := e.Stats(); p != 5 {
		t.Errorf("entry packets = %d, want 5", p)
	}
	// Crossing the threshold turns the cache on for the next frames.
	padToCache(t, sw)
	for i := 0; i < 2; i++ {
		_ = hosts[0].Send(netdev.Frame{Data: data})
	}
	if cs := cacheStats(t, sw); cs.Hits != 1 || cs.Misses != 6 || cs.Entries != 1 {
		t.Errorf("after padding: cache stats %+v, want 1 hit / 6 misses / 1 entry", cs)
	}
}

// TestSlotArraysOnlyForCacheWorthyTables checks that the 64 KB slot array of
// each partition exists only once the switch has published a table big
// enough to cache: a service-chain LSI that never gets there never holds one.
func TestSlotArraysOnlyForCacheWorthyTables(t *testing.T) {
	for _, workers := range laneModes {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			sw := NewOptions("lsi", 1, Options{Workers: workers})
			t.Cleanup(sw.Close)
			slots := func() (n int) {
				for i := range sw.cache.parts {
					if sw.cache.parts[i].slots != nil {
						n++
					}
				}
				return n
			}
			entries := make([]*FlowEntry, cacheMinEntries-1)
			for i := range entries {
				entries[i] = &FlowEntry{Cookie: 1, Match: MatchAll().WithInPort(uint32(i + 1))}
			}
			if _, err := sw.SwapFlows(1, entries); err != nil {
				t.Fatal(err)
			}
			sw.DeleteFlows(1)
			mustAdd(t, sw, &FlowEntry{Match: MatchAll()})
			if n := slots(); n != 0 {
				t.Fatalf("%d partitions hold slot arrays below cacheMinEntries", n)
			}
			padToCache(t, sw)
			if n, want := slots(), max(workers, 1); n != want {
				t.Fatalf("%d partitions hold slot arrays after crossing cacheMinEntries, want %d", n, want)
			}
		})
	}
}
