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

const (
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
// own flows: one for an inline switch, one per worker for a pool.
func newMicroflowCache(nParts int) *microflowCache {
	c := &microflowCache{
		seed:  maphash.Comparable(maphash.MakeSeed(), uint64(0)),
		parts: make([]cachePart, nParts),
	}
	for i := range c.parts {
		c.parts[i].slots = make([]atomic.Pointer[cacheVerdict], cacheSlots)
	}
	c.enabled.Store(true)
	return c
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
	// the cache is enabled).
	Misses uint64
	// Entries is the number of resident verdicts, valid or stale.
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
