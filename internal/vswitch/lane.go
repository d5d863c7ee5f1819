package vswitch

import (
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/netdev"
	"repro/internal/pkt"
)

// The lane is the datapath: the only way a received or injected frame
// reaches the flow tables. A lane executes one burst at a time — begin loads
// the cache state once, forward runs each frame through the microflow cache
// (tables of cacheMinEntries entries or more) or walks the tables while
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
	drops       atomic.Uint64 // discarded: unknown egress, miss-drop, queue-full
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
	// v is the verdict the next slow-path traversal records into. A
	// cacheable one is handed to the cache as is and end allocates the
	// replacement after the egress flush, so the allocation a miss costs
	// stays off the frame's way to the wire.
	v  *cacheVerdict
	tx txCoalescer

	// Cache state of the running burst, loaded once in begin. cacheOn: the
	// cache is enabled, so every frame counts as a hit or a miss. cached:
	// it is enabled and the tables are big enough to cache, so frames probe
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
			l.forward(s, inPort, chunk[i].Data, hash, chunk[i].Hops)
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
		l.forward(s, it.inPort, it.data, it.hash, it.hops)
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
		// Read the generation before the tables: a concurrent flow-mod swaps
		// the snapshot first and bumps the generation second, so a verdict
		// recorded under an old generation can never describe new tables.
		l.gen = s.cache.gen.Load()
		l.cached = s.tables.Load().cached
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
// does not probe): a microflow-cache hit replays the memoized verdict;
// anything else walks the tables and, over cache-worthy tables, records the
// traversal for the next packet. Every walk is a miss.
func (l *lane) forward(s *Switch, inPort uint32, data []byte, hash uint64, hops int) {
	l.frames++
	l.ctx = actionContext{data: data, key: &l.key, gotoTable: -1, ctrs: l.ctrs, tx: &l.tx, hops: hops}
	if !l.cached {
		l.misses++
		s.runPipeline(l, inPort, false)
		return
	}
	if v := s.cache.get(hash, &l.key, l.gen); v != nil {
		l.hits++
		s.replay(l, inPort, v)
		return
	}
	l.misses++
	if l.v == nil {
		l.v = new(cacheVerdict)
	}
	l.v.key = l.key // pristine copy: actions mutate the key during traversal
	if s.runPipeline(l, inPort, true) {
		s.cache.put(hash, l.v)
		l.v = nil
	}
}

// end closes the burst: egress first, then the bookkeeping — entry stats,
// the spare verdict, the published counters (hits and misses only while the
// cache is enabled).
func (l *lane) end(s *Switch) {
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
		s.latency.Observe(time.Since(l.start).Seconds() / float64(l.frames))
	}
	l.frames, l.hits, l.misses = 0, 0, 0
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
// table or cache miss — they did not consult the tables, so they must not
// pollute the hit-rate or table-miss metrics.
func (s *Switch) countMalformed(n uint64) {
	if n != 0 {
		s.inline.pipeline.Add(n)
		s.inline.drops.Add(n)
		s.inline.malformed.Add(n) // last: who sees it sees the other two
	}
}

// runPipeline is the slow path: a full multi-table traversal over the
// current table snapshot. With record set it fills l.v with the traversal
// and reports whether the verdict is cacheable (a traversal deeper than
// verdictMaxEntries executes but is not memoized).
func (s *Switch) runPipeline(l *lane, inPort uint32, record bool) bool {
	tables := s.tables.Load().tables
	ctx := &l.ctx
	if record {
		l.v.gen = l.gen
		l.v.nEntries = 0
		l.v.missTable = -1
	}
	table := 0
	for table < s.nTables {
		entry := lookupEntry(tables[table], &l.key)
		if entry == nil {
			s.missAction(inPort, table, ctx.data, l.ctrs)
			if record {
				l.v.missTable = table
			}
			return record
		}
		if record {
			if l.v.nEntries == verdictMaxEntries {
				record = false
			} else {
				l.v.entries[l.v.nEntries] = entry
				l.v.nEntries++
			}
		}
		l.hitEntry(entry, len(ctx.data))
		ctx.tableID = table
		ctx.gotoTable = -1
		for _, a := range entry.Actions {
			a.apply(s, ctx)
		}
		if ctx.gotoTable < 0 {
			break // pipeline ends; Output actions already ran
		}
		table = ctx.gotoTable
	}
	return record
}

// replay re-applies a memoized traversal to one packet: per matched entry it
// accounts the hit and runs the action list, exactly as the slow path would,
// then finishes with the recorded table miss if there was one.
func (s *Switch) replay(l *lane, inPort uint32, v *cacheVerdict) {
	ctx := &l.ctx
	for i := 0; i < v.nEntries; i++ {
		e := v.entries[i]
		l.hitEntry(e, len(ctx.data))
		ctx.tableID = e.Table
		ctx.gotoTable = -1
		for _, a := range e.Actions {
			a.apply(s, ctx)
		}
	}
	if v.missTable >= 0 {
		s.missAction(inPort, v.missTable, ctx.data, l.ctrs)
	}
}

// lookupEntry finds the highest-priority matching entry in one table's
// priority-sorted entry list.
func lookupEntry(entries []*FlowEntry, key *flowKey) *FlowEntry {
	for _, e := range entries {
		if e.Match.matches(key) {
			return e
		}
	}
	return nil
}

func (s *Switch) missAction(inPort uint32, table int, data []byte, ctrs *dpCounters) {
	ctrs.misses.Add(1)
	// A punt only counts as delivered when a controller is actually
	// attached; MissController with no handler still discards the frame.
	// The handler is loaded once so a concurrent detach cannot slip the
	// frame between the check and the delivery uncounted.
	if MissPolicy(s.miss.Load()) == MissController {
		if fn := s.onPktIn.Load(); fn != nil {
			s.deliverPacketIn(fn, inPort, table, ReasonMiss, data)
			return
		}
	}
	ctrs.drops.Add(1)
}

func (s *Switch) packetIn(inPort uint32, table int, reason PacketInReason, data []byte) {
	fn := s.onPktIn.Load()
	if fn == nil {
		return
	}
	s.deliverPacketIn(fn, inPort, table, reason, data)
}

func (s *Switch) deliverPacketIn(fn *PacketInHandler, inPort uint32, table int, reason PacketInReason, data []byte) {
	d := pkt.GetBuffer(len(data))
	copy(d, data)
	(*fn)(PacketIn{InPort: inPort, TableID: table, Reason: reason, Data: d})
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

// flood transmits the frame on every port except the ingress, in port
// number order.
func (s *Switch) flood(inPort uint32, ctx *actionContext) {
	for _, n := range s.ports.Load().sorted {
		if n != inPort {
			s.output(n, ctx)
		}
	}
}
