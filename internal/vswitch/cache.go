package vswitch

import (
	"hash/maphash"
	"sync/atomic"
)

// The microflow cache memoizes the outcome of a complete multi-table
// pipeline traversal per exact flow key, in the spirit of Open vSwitch's
// exact-match cache: the first packet of a microflow walks the priority
// lists of every table (the slow path) and records the sequence of entries
// it matched; every later packet with the same key replays that sequence
// without any table lookup.
//
// Correctness rests on two facts. First, the matched-entry sequence is a
// pure function of the initial flow key and the table contents: actions
// mutate the packet (and reparse the key) deterministically, so identical
// input keys traverse identical entries. Second, every mutation of the
// lookup state (flow add/delete, port attach/detach) bumps a generation
// counter AFTER publishing the new state; a verdict records the generation
// read BEFORE its traversal and is only served while the two still agree,
// so a verdict computed against stale tables can never validate.
//
// The cache is split into partitions of fixed-size slot arrays read and
// written with single atomic pointer operations — no locks anywhere. A
// switch whose lane runs inline (Workers=0) has one partition; a worker-pool
// switch has exactly one partition per worker: both the RSS steering
// decision and the partition choice are hash%N with the same hash, so a
// given microflow's verdict is only ever read and written by the core that
// forwards the flow and its cache lines never bounce between cores.
//
// A cache only pays where its hits save more than its misses cost, and a
// miss costs a probe, a verdict record and an allocation on top of the walk.
// On a table of a few rules — a service-chain LSI — a hit saves little, so
// each published table snapshot records whether it is big enough to cache
// (tableSet.cached, total entries >= cacheMinEntries), and a lane bursting
// over a smaller one walks it: no probe, no key hash, no verdict. The
// partitions' slot arrays are allocated when the first cache-worthy
// snapshot is published, so a switch that never gets one never holds them.

const (
	// cacheMinEntries is the total flow-entry count from which a switch
	// caches. BenchmarkCacheCrossover, median ns per frame of 5 runs over N
	// L4 rules with the matching entry last (2-vCPU Intel Xeon VM):
	//
	//	rules            4     8    16    32    64   128   256
	//	hit             82    81    81    82    82    82    82
	//	miss           199   222   313   479   842  1468  2711
	//	walk           104   141   220   355   652  1250  2444
	//	break-even h  0.81  0.57  0.40  0.31  0.25  0.16  0.10
	//
	// A hit beats the walk at every N, but a cache pays only if its hits
	// save more than its misses cost: at hit ratio h when
	// h·(walk−hit) > (1−h)·(miss−walk). The switch cannot see h, so it
	// caches from the first N whose break-even ratio is below one half.
	cacheMinEntries = 16
	// cacheSlots is the slot count of one partition (a power of two). Like
	// the OVS exact-match cache, a colliding insert simply evicts the
	// previous occupant — losing an entry only costs a slow-path walk — so
	// the cache is memory-bounded with no eviction bookkeeping.
	cacheSlots = 8192
	// verdictMaxEntries bounds the matched-entry chain recorded inline in a
	// verdict. A traversal matching more tables than this is executed but
	// not memoized, keeping the verdict a fixed-size allocation.
	verdictMaxEntries = 8
)

// cacheVerdict is the memoized outcome of one slow-path traversal. Verdicts
// are immutable once published: the slow path records into a verdict the
// lane owns, and put takes it over.
type cacheVerdict struct {
	// gen is the invalidation generation the traversal ran under.
	gen uint64
	// key is the pristine input key; the map is keyed by the key's hash, so
	// a lookup must compare keys to reject the (rare) colliding microflow.
	key flowKey
	// missTable is the table that missed, or -1 when the pipeline ended
	// through its action list.
	missTable int
	// entries[:nEntries] are the flow entries matched, one per visited
	// table, inline so a verdict is one allocation.
	nEntries int
	entries  [verdictMaxEntries]*FlowEntry
}

// cachePart is one cache partition: a fixed open-addressed array of
// immutable verdicts, read and written with single atomic pointer
// operations — the datapath never takes a lock, and a /metrics scrape reads
// only the size gauge (maintained on empty-slot fills), never the slots.
type cachePart struct {
	slots []atomic.Pointer[cacheVerdict]
	size  atomic.Int64
}

// microflowCache is the partitioned exact-match flow cache of one Switch.
type microflowCache struct {
	// seed randomizes the flowKey hash per switch so adversarial microflow
	// sets cannot be precomputed to pile onto one partition.
	seed    uint64
	gen     atomic.Uint64
	enabled atomic.Bool
	parts   []cachePart
}

// newMicroflowCache builds the cache with one partition per lane that can
// own flows: one for an inline switch, one per worker for a pool. The slot
// arrays come later, from allocSlots.
func newMicroflowCache(nParts int) *microflowCache {
	c := &microflowCache{
		seed:  maphash.Comparable(maphash.MakeSeed(), uint64(0)),
		parts: make([]cachePart, nParts),
	}
	c.enabled.Store(true)
	return c
}

// allocSlots gives every partition its slot array, once. The caller holds
// the switch's mu and publishes a cache-worthy table snapshot afterwards:
// a lane only touches the slots after loading such a snapshot, so that
// atomic store is what makes them visible.
func (c *microflowCache) allocSlots() {
	for i := range c.parts {
		if c.parts[i].slots == nil {
			c.parts[i].slots = make([]atomic.Pointer[cacheVerdict], cacheSlots)
		}
	}
}

// part picks the partition from the hash's low bits — the same bits RSS
// steering uses, so in worker mode part(hash) is always the partition owned
// by the worker processing the flow.
func (c *microflowCache) part(hash uint64) *cachePart {
	if len(c.parts) == 1 {
		return &c.parts[0]
	}
	return &c.parts[hash%uint64(len(c.parts))]
}

// slot indexes within a partition using the hash's high bits, which are
// independent of the low bits the partition choice consumed.
func (p *cachePart) slot(hash uint64) *atomic.Pointer[cacheVerdict] {
	return &p.slots[(hash>>32)&uint64(len(p.slots)-1)]
}

// get returns the cached verdict for the key (pre-hashed by the caller) if
// it is still valid under gen: one atomic load plus a key compare.
func (c *microflowCache) get(hash uint64, key *flowKey, gen uint64) *cacheVerdict {
	v := c.part(hash).slot(hash).Load()
	if v == nil || v.gen != gen || v.key != *key {
		return nil
	}
	return v
}

// put installs v, which the caller must not touch again, evicting whatever
// occupied the slot (verdicts are immutable, so a reader holding the old
// pointer just finishes its replay against the still-valid old verdict).
func (c *microflowCache) put(hash uint64, v *cacheVerdict) {
	p := c.part(hash)
	if old := p.slot(hash).Swap(v); old == nil {
		p.size.Add(1)
	}
}

// invalidate retires every cached verdict in O(1) by advancing the
// generation. Stale entries linger until overwritten, but can never be
// served again.
func (c *microflowCache) invalidate() {
	c.gen.Add(1)
}

// entryCount is O(partitions) atomic loads: the sizes are maintained on
// slot fills, so a /metrics scrape never touches the datapath slots.
func (c *microflowCache) entryCount() int {
	n := int64(0)
	for i := range c.parts {
		n += c.parts[i].size.Load()
	}
	return int(n)
}

// CacheStats is a snapshot of a switch's microflow-cache counters.
type CacheStats struct {
	// Hits counts packets fully served by a cached verdict.
	Hits uint64
	// Misses counts packets that took the slow path (counted only while
	// the cache is enabled), including every packet that walked tables too
	// small to cache (cacheMinEntries): Hits+Misses is one per switch
	// crossing of a well-formed frame.
	Misses uint64
	// Entries is the number of resident verdicts, valid or stale; 0 on a
	// switch whose tables never reached cacheMinEntries.
	Entries int
	// Generation is the current invalidation generation.
	Generation uint64
	// Enabled reports whether the cache is in use.
	Enabled bool
}

// HitRate returns the fraction of cache-eligible packets served from the
// cache, in [0,1].
func (s CacheStats) HitRate() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// CacheStats returns a snapshot of the switch's microflow-cache counters.
// Hit and miss counts are aggregated from the per-lane datapath counters.
func (s *Switch) CacheStats() CacheStats {
	cs := CacheStats{
		Entries:    s.cache.entryCount(),
		Generation: s.cache.gen.Load(),
		Enabled:    s.cache.enabled.Load(),
	}
	s.eachCtrs(func(c *dpCounters) {
		cs.Hits += c.cacheHits.Load()
		cs.Misses += c.cacheMisses.Load()
	})
	return cs
}

// SetCacheEnabled switches the microflow cache on or off. Disabling sends
// every packet down the slow path; it exists for ablation benchmarks and
// debugging. Flow-mods keep advancing the generation while disabled, so
// re-enabling never serves verdicts from an older table state.
func (s *Switch) SetCacheEnabled(on bool) {
	s.cache.enabled.Store(on)
}
