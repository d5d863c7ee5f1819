package vswitch

import (
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/netdev"
	"repro/internal/pkt"
)

// The lane is the datapath: the only way a received or injected frame
// reaches the flow table. A lane executes one burst at a time — begin loads
// the cache state once, forward runs each frame through the microflow cache
// (a table of cacheMinEntries entries or more) or walks the table while
// flow-entry hit stats and egress frames accumulate,
// end transmits one SendBatch per egress port and only then does the
// bookkeeping: flushes the stats, publishes the counters and samples the
// latency histogram.
//
// Where a lane runs is the only thing Options.Workers selects. A switch
// without workers executes a lane inline in the sender's goroutine (a single
// Send is a burst of one, a SendBatch a real burst), so every frame has left
// the switch, flush included, when the send returns. A worker pool is N of
// the same lanes, each behind its own ring (worker.go).
//
// Bursts execute breadth-first per hop: the whole burst crosses this switch
// before any of it reaches the next one, and frames bound for different
// egress ports leave port by port, not interleaved in arrival order. Frames
// that share a path keep their order.

// dpCounters is one lane's published counter set. Inline lanes share the
// switch's sender-context set; every worker lane has its own, so a worker's
// hot path only ever touches cache lines owned by its core, and
// Telemetry/Misses/CacheStats aggregate at scrape time.
type dpCounters struct {
	pipeline    atomic.Uint64 // frames that completed the pipeline (rx)
	misses      atomic.Uint64 // table-miss packets
	drops       atomic.Uint64 // discarded: unknown egress, table miss, queue-full
	malformed   atomic.Uint64 // frames extractKey rejected (not a table miss)
	cacheHits   atomic.Uint64
	cacheMisses atomic.Uint64
	_           [16]byte // pad to 64 bytes against false sharing
}

// lane is the working state of one burst executor. The parsed flow key and
// the action context live here because the action interface calls would
// otherwise force both to escape to the heap per packet; reusing them is
// what makes the hit path allocation-free.
type lane struct {
	ctrs *dpCounters
	key  flowKey
	ctx  actionContext
	// v is the verdict the next cached miss records into. It is handed to
	// the cache as is and end allocates the replacement after the egress
	// flush, so the allocation a miss costs stays off the frame's way to the
	// wire.
	v  *cacheVerdict
	tx txCoalescer

	// Cache state of the running burst, loaded once in begin. cacheOn: the
	// cache is enabled, so every frame counts as a hit or a miss. cached:
	// it is enabled and the table is big enough to cache, so frames probe
	// and record. Each verdict is recorded under the generation it was read
	// with, so a flow-mod mid-burst widens the staleness window to at most
	// one burst and can never publish a stale verdict past it.
	gen             uint64
	cacheOn, cached bool

	// Burst-local counts, published in end — after the egress flush, so a
	// reader of PacketsProcessed or CacheStats never sees a frame counted
	// that has not left yet.
	frames, hits, misses uint64

	// statE accumulates flow-entry hit stats across the burst: consecutive
	// frames usually hit the same entries, so the two atomic adds per entry
	// are paid once per run instead of once per frame. The entry counters
	// lag live traffic by at most one burst, like a NIC's batched descriptor
	// writeback.
	statE     *FlowEntry
	statPkts  uint64
	statBytes uint64

	// seen counts the frames this lane was handed; a burst that carries it
	// across a 2^latencySampleShift boundary is timed (start is non-zero).
	seen  uint64
	start time.Time
}

// latencySampleShift selects which bursts pay for a latency measurement: the
// burst that carries a lane's frame count across a multiple of 2^shift takes
// two clock reads and records its per-frame average; the rest only do the
// shift compare.
const latencySampleShift = 10

// spareLanes backs nested and concurrent entry into inline switches: a
// switch→NF→switch chain re-enters a switch whose own lane is mid-burst, and
// several goroutines may send into one switch at once.
var spareLanes = sync.Pool{New: func() any { return new(lane) }}

// claimLane takes the switch's own lane with a single swap in the common
// case (one goroutine in the switch at a time) and a spare one otherwise.
func (s *Switch) claimLane() *lane {
	if l := s.lane.Swap(nil); l != nil {
		return l
	}
	l := spareLanes.Get().(*lane)
	l.ctrs = &s.inline
	return l
}

// releaseLane parks the lane in the switch's slot if that is empty (which
// lane sits there does not matter: every inline lane of a switch is
// equivalent), otherwise returns it to the spares.
func (s *Switch) releaseLane(l *lane) {
	if !s.lane.CompareAndSwap(nil, l) {
		spareLanes.Put(l)
	}
}

// runInline executes a received burst on the caller: parse into the lane's
// key, hash it if the burst probes the cache, forward, next. Bursts larger
// than workerBurst run in workerBurst-sized chunks, which bounds what the
// egress batches grow to.
func (s *Switch) runInline(inPort uint32, fs []netdev.Frame) {
	l := s.claimLane()
	seed := s.cache.seed
	for len(fs) > 0 {
		chunk := fs[:min(len(fs), workerBurst)]
		fs = fs[len(chunk):]
		var malformed uint64
		l.begin(s, len(chunk))
		for i := range chunk {
			if err := extractKey(chunk[i].Data, inPort, &l.key); err != nil {
				malformed++
				continue
			}
			var hash uint64
			if l.cached {
				hash = l.key.hash(seed)
			}
			l.forward(s, chunk[i].Data, hash, chunk[i].Hops)
		}
		l.end(s)
		s.countMalformed(malformed)
	}
	s.releaseLane(l)
}

// runItems executes a burst of steered frames — parsed and hashed by the
// producer — and recycles their buffers. Frames steered from one chunk sit in
// consecutive items, so their shared chunk buffer is released with one
// run-length-batched atomic instead of one per frame.
func (l *lane) runItems(s *Switch, items []workerItem) {
	var sb *sharedBuf
	var sbRefs int32
	l.begin(s, len(items))
	for i := range items {
		it := &items[i]
		l.key = it.key
		l.forward(s, it.data, it.hash, it.hops)
		if it.shared == nil {
			pkt.PutBuffer(it.data)
			continue
		}
		if it.shared != sb {
			if sb != nil {
				sb.releaseN(sbRefs)
			}
			sb, sbRefs = it.shared, 0
		}
		sbRefs++
	}
	if sb != nil {
		sb.releaseN(sbRefs)
	}
	l.end(s)
}

// begin opens a burst of up to n frames.
func (l *lane) begin(s *Switch, n int) {
	l.cacheOn = s.cache.enabled.Load()
	l.cached = false
	if l.cacheOn {
		// Read the generation before the table: a concurrent flow-mod swaps
		// the snapshot first and bumps the generation second, so a verdict
		// recorded under an old generation can never describe a new table.
		l.gen = s.cache.gen.Load()
		l.cached = s.table.Load().cached
	}
	before := l.seen
	l.seen += uint64(n)
	l.start = time.Time{}
	if before>>latencySampleShift != l.seen>>latencySampleShift {
		l.start = time.Now()
	}
}

// forward is the pipeline body for one frame whose parsed key is in l.key
// and whose hash picked the cache partition (and, behind rings, the worker,
// so a flow's verdict stays core-local; the hash is unset when the burst
// does not probe): a microflow-cache hit runs the memoized entry; anything
// else looks the table up and, over a cache-worthy table, records the
// verdict for the next packet. Every lookup is a miss.
func (l *lane) forward(s *Switch, data []byte, hash uint64, hops int) {
	l.frames++
	l.ctx = actionContext{data: data, key: &l.key, ctrs: l.ctrs, tx: &l.tx, hops: hops}
	if !l.cached {
		l.misses++
		s.execute(l, lookupEntry(s.table.Load(), &l.key))
		return
	}
	if v := s.cache.get(hash, &l.key, l.gen); v != nil {
		l.hits++
		s.execute(l, v.entry)
		return
	}
	l.misses++
	v := l.v
	if v == nil {
		v = new(cacheVerdict)
	}
	l.v = nil
	// The key is copied before the actions run: a tag push or pop reparses it.
	v.gen, v.key, v.entry = l.gen, l.key, lookupEntry(s.table.Load(), &l.key)
	s.execute(l, v.entry)
	s.cache.put(hash, v)
}

// hitEntry accounts one frame against a matched flow entry.
func (l *lane) hitEntry(e *FlowEntry, bytes int) {
	if e != l.statE {
		l.flushEntryStats()
		l.statE = e
	}
	l.statPkts++
	l.statBytes += uint64(bytes)
}

// flushEntryStats publishes the accumulated flow-entry hit stats.
func (l *lane) flushEntryStats() {
	if l.statE != nil {
		l.statE.packets.Add(l.statPkts)
		l.statE.bytes.Add(l.statBytes)
		l.statE = nil
	}
	l.statPkts, l.statBytes = 0, 0
}

// countMalformed accounts frames the parser rejected, against the
// sender-context counters: received, malformed and dropped, but never a
// table or cache miss — they did not consult the table, so they must not
// pollute the hit-rate or table-miss metrics.
func (s *Switch) countMalformed(n uint64) {
	if n != 0 {
		s.inline.pipeline.Add(n)
		s.inline.drops.Add(n)
		s.inline.malformed.Add(n) // last: who sees it sees the other two
	}
}

// execute applies one frame's verdict: the matched entry's actions, or, for
// nil, the table miss, which is counted and dropped.
func (s *Switch) execute(l *lane, e *FlowEntry) {
	if e == nil {
		l.ctrs.misses.Add(1)
		l.ctrs.drops.Add(1)
		return
	}
	l.hitEntry(e, len(l.ctx.data))
	for _, a := range e.Actions {
		a.apply(s, &l.ctx)
	}
}

// output is the egress of an Output-style action: the frame joins the
// burst's TX batch for the port (txcoalesce.go). Unknown ports drop.
func (s *Switch) output(num uint32, ctx *actionContext) {
	p := s.ports.Load().lookup(num)
	if p == nil {
		ctx.ctrs.drops.Add(1)
		return
	}
	ctx.tx.add(num, p, ctx.data, ctx.hops)
}

// end closes the burst: egress first, then the bookkeeping — entry stats,
// the spare verdict, the published counters (hits and misses only while the
// cache is enabled).
func (l *lane) end(s *Switch) {
	l.tx.release()
	l.tx.flush()
	l.flushEntryStats()
	if l.frames == 0 {
		return
	}
	if l.v == nil && l.cached {
		l.v = new(cacheVerdict)
	}
	if l.hits != 0 {
		l.ctrs.cacheHits.Add(l.hits)
	}
	if l.misses != 0 && l.cacheOn {
		l.ctrs.cacheMisses.Add(l.misses)
	}
	// The frame count goes last: whoever reads it (completion loops do)
	// then also sees the cache counts of those frames.
	l.ctrs.pipeline.Add(l.frames)
	if !l.start.IsZero() {
		s.observeLatency(time.Since(l.start).Seconds() / float64(l.frames))
	}
	l.frames, l.hits, l.misses = 0, 0, 0
}
