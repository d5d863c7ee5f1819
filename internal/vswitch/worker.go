package vswitch

import (
	"math/bits"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/netdev"
	"repro/internal/pkt"
	"repro/internal/telemetry"
)

// The worker pool puts N datapath lanes (lane.go) behind rings. Each worker
// is a run-to-completion goroutine fed by its own lock-free ring; received
// frames are steered to a worker by flow-key hash, RSS-style, so every
// packet of a microflow is processed by the same worker — which also owns
// that flow's cache partition (steering index and partition index are the
// same hash mod N), its own lane and its own counter cache line. Nothing
// per-flow is ever shared between cores.
//
// steerBatch groups a received burst by destination worker and enqueues each
// group with one batched ring operation and at most one wakeup; the worker
// drains up to workerBurst items per iteration with one batched pop and runs
// them as one lane burst.
//
// Ownership: the steering step copies the frame into a pool-backed buffer
// (the sender's buffer is only valid during the Send call), and the lane
// recycles it after the pipeline finishes — egress copies again, so the ring
// buffer never escapes.

// workerRingLen is the per-worker RX ring capacity, sized like a NIC RX
// descriptor ring.
const workerRingLen = 1024

// workerBurst is the largest burst a lane executes: what a worker pops per
// iteration, and the chunk size of steering and of inline execution — the
// software analogue of a NIC RX burst.
const workerBurst = 64

// steerRetries bounds how many scheduler yields a port-RX steer spends
// waiting for ring space before tail-dropping. A busy-but-alive worker
// drains within a yield or two (the retry is what lets a single-CPU host
// absorb a burst instead of dropping it wholesale); only a worker that is
// genuinely stuck — blocked in an NF, livelocked — exhausts the budget.
// The Inject backpressure path spins the same budget, then parks on the
// worker's space channel instead of burning the core (see enqueue).
const steerRetries = 128

// idleSpin is how many empty polls a worker makes before parking. Under
// bursty offered load the gap between bursts is usually shorter than a
// park/wake round trip; a bounded spin absorbs it, and a genuinely idle
// worker still parks after idleSpin yields instead of burning its core.
const idleSpin = 64

// burstBuckets are the upper bounds of the burst-size histogram buckets:
// a drained burst of n frames lands in the first bucket with bound >= n.
// Exported for metric labelling as BurstBuckets.
var burstBuckets = [...]int{1, 2, 4, 8, 16, 32, 64}

// BurstBuckets returns the upper bounds of the per-worker burst-size
// histogram buckets reported in WorkerStats.BurstHist.
func BurstBuckets() []int {
	out := make([]int, len(burstBuckets))
	copy(out, burstBuckets[:])
	return out
}

// burstBucket maps a burst size in [1, workerBurst] to its histogram index:
// sizes 1,2 get their own bucket, then powers of two.
func burstBucket(n int) int {
	return bits.Len(uint(n - 1))
}

// workerItem is one steered frame: the key is parsed and hashed once on the
// producer side (steering needs the hash anyway), so the worker starts
// straight at the cache lookup.
type workerItem struct {
	key  flowKey
	hash uint64
	hops int    // the ingress frame's hop count, carried onto every egress frame
	data []byte // private copy, recycled by the lane (or releaseData on a drop)
	// shared is the reference-counted chunk buffer data points into; nil
	// means data is a private frame-pool buffer (single frames, jumbo frames).
	shared *sharedBuf
}

// releaseData recycles the frame buffer of an item that never reached a
// lane: shared chunk buffers drop a reference, private buffers go back to
// the frame pool.
func (it *workerItem) releaseData() {
	if it.shared != nil {
		it.shared.release()
		return
	}
	pkt.PutBuffer(it.data)
}

type dpWorker struct {
	ring *netdev.Ring[workerItem]
	// wake (capacity 1) plus the parked flag implement sleep/wakeup without
	// busy-spinning: the worker publishes parked=true, rechecks the ring,
	// then blocks; a producer that observes parked=true after its push
	// drops a token in the channel. Sequentially consistent atomics make a
	// lost wakeup impossible.
	wake   chan struct{}
	parked atomic.Bool
	// space (capacity 1) plus the waiters count implement the reverse
	// notification: a backpressured producer (Inject) that finds the ring
	// full increments waiters and blocks on space; the worker, after each
	// burst, drops a token when waiters is non-zero. The producer re-checks
	// the ring between increment and block, so a token can never be missed
	// while space remains unclaimed (see enqueue for the full protocol).
	space   chan struct{}
	waiters atomic.Int32
	qdrops  atomic.Uint64 // frames tail-dropped because the ring was full
	ctrs    dpCounters
	lane    lane
	// txCoalesced and txFlushes count the frames and SendBatch calls of the
	// lane's egress flushes.
	txCoalesced, txFlushes atomic.Uint64
	// burstHist counts drained bursts by size bucket (see burstBuckets).
	burstHist [len(burstBuckets)]atomic.Uint64
	burst     [workerBurst]workerItem // pop buffer, owned by the worker
}

type workerPool struct {
	workers []*dpWorker
	done    chan struct{}
	wg      sync.WaitGroup
}

// startWorkers builds the pool and launches the worker goroutines. Called
// once from NewOptions before the switch is visible to any sender.
func (s *Switch) startWorkers(n int) {
	p := &workerPool{done: make(chan struct{})}
	for i := 0; i < n; i++ {
		w := &dpWorker{
			ring:  netdev.NewRing[workerItem](workerRingLen),
			wake:  make(chan struct{}, 1),
			space: make(chan struct{}, 1),
		}
		w.lane.ctrs = &w.ctrs
		p.workers = append(p.workers, w)
	}
	s.workers = p.workers
	s.pool.Store(p)
	for _, w := range p.workers {
		p.wg.Add(1)
		go func(w *dpWorker) {
			defer p.wg.Done()
			w.loop(s, p.done)
		}(w)
	}
}

// Close stops the datapath workers, processing anything still queued. It is
// a no-op on a switch without workers and idempotent otherwise; afterwards
// the switch runs its lane inline. Frames steered concurrently with Close
// are either completed here or run inline by their sender once the pool
// pointer is gone.
func (s *Switch) Close() {
	p := s.pool.Swap(nil)
	if p == nil {
		return
	}
	close(p.done)
	p.wg.Wait()
	// A producer that loaded the pool pointer just before the swap may have
	// pushed after its worker drained; the workers are gone, so finish
	// those frames here, on the lanes they left behind.
	for _, w := range p.workers {
		w.drain(s)
		// Belt and suspenders: the exiting worker already flushed its
		// waiters, but a producer racing the pool swap may have parked
		// after that. It re-checks the pool on wake and falls back inline.
		w.flushWaiters()
	}
}

// wakeIfParked nudges the worker if it published parked=true; the capacity-1
// channel makes redundant nudges free.
func (w *dpWorker) wakeIfParked() {
	if w.parked.Load() {
		select {
		case w.wake <- struct{}{}:
		default:
		}
	}
}

// signalSpace hands a blocked backpressured producer its wakeup token.
func (w *dpWorker) signalSpace() {
	if w.waiters.Load() != 0 {
		select {
		case w.space <- struct{}{}:
		default:
		}
	}
}

// flushWaiters releases every producer still parked on the space channel;
// called on worker exit so Close never strands an Inject caller.
func (w *dpWorker) flushWaiters() {
	for w.waiters.Load() != 0 {
		select {
		case w.space <- struct{}{}:
		default:
			runtime.Gosched()
		}
	}
}

// steerScratch is the reusable grouping buffer of steerBatch: one group of
// items per worker, drawn from the switch's steerPool so concurrent senders
// never share it and the steady state allocates nothing.
type steerScratch struct {
	groups [][]workerItem
}

// steerBatch parses and hashes a received burst, groups the frames by
// destination worker (hash mod N, the same index that picks the cache
// partition), and enqueues each group with one batched ring push. Frames of
// one flow always hash to the same group and stay in arrival order within
// it, so batching never reorders a flow. Bursts larger than workerBurst are
// steered in workerBurst-sized chunks to bound the grouping buffer. wait is
// passed on to enqueue.
func (s *Switch) steerBatch(p *workerPool, inPort uint32, fs []netdev.Frame, wait bool) {
	nw := uint64(len(p.workers))
	seed := s.cache.seed
	ss := s.steerPool.Get().(*steerScratch)
	for len(fs) > 0 {
		chunk := fs[:min(len(fs), workerBurst)]
		fs = fs[len(chunk):]
		var malformed uint64
		var sb *sharedBuf
		var it workerItem
		for i := range chunk {
			data := chunk[i].Data
			if err := extractKey(data, inPort, &it.key); err != nil {
				malformed++
				continue
			}
			it.hash = it.key.hash(seed)
			it.hops = chunk[i].Hops
			sb = packFrame(&it, data, sb, len(chunk) > 1)
			g := &ss.groups[it.hash%nw]
			*g = append(*g, it)
		}
		if sb != nil {
			// Publish the reference count before any item reaches a worker:
			// the group pushes below make the items visible.
			sb.seal()
		}
		for wi, g := range ss.groups {
			if len(g) > 0 {
				s.enqueue(p, p.workers[wi], g, wait)
				ss.groups[wi] = g[:0]
			}
		}
		s.countMalformed(malformed)
	}
	s.steerPool.Put(ss)
}

// packFrame copies one steered frame into the chunk's shared buffer — one
// pool round trip per chunk instead of per frame — and returns the (possibly
// new) current chunk buffer. A frame that has no chunk to share with, or is
// oversized, gets a private pool buffer and is released individually
// (it.shared == nil).
func packFrame(it *workerItem, data []byte, sb *sharedBuf, share bool) *sharedBuf {
	if !share || len(data) > sharedBufCap {
		it.data = pkt.GetBuffer(len(data))
		it.shared = nil
	} else {
		if sb != nil && sb.off+len(data) > sharedBufCap {
			sb.seal()
			sb = nil
		}
		if sb == nil {
			sb = sharedBufPool.Get().(*sharedBuf)
			sb.off, sb.count = 0, 0
		}
		it.data = sb.buf[sb.off : sb.off+len(data) : sb.off+len(data)]
		sb.off += len(data)
		sb.count++
		it.shared = sb
	}
	copy(it.data, data)
	return sb
}

// enqueue hands one worker its share of a burst: a single batched ring
// operation in the common case, then a bounded spin while the ring is full.
// What is still unsent after that is tail-dropped (wait false: port RX, NIC
// semantics) or waited for (wait true: Inject), parked on the worker's space
// channel so a stuck worker does not burn the caller's core. The waiters
// increment happens before the ring re-check, and the worker checks waiters
// after every burst, so the token cannot be lost: if the push fails the ring
// was full, meaning the worker still has at least one burst to run — and
// therefore one signalSpace still to issue. The worker is woken at most once
// per call, not once per frame.
func (s *Switch) enqueue(p *workerPool, w *dpWorker, items []workerItem, wait bool) {
	sent := w.ring.TryPushBatch(items)
	for tries := 0; sent < len(items) && tries <= steerRetries; {
		// The ring is full, so the worker has work: make sure it is awake,
		// then give it the CPU.
		w.wakeIfParked()
		runtime.Gosched()
		n := w.ring.TryPushBatch(items[sent:])
		sent += n
		if n == 0 {
			tries++
		}
	}
	for wait && sent < len(items) {
		w.waiters.Add(1)
		n := w.ring.TryPushBatch(items[sent:])
		sent += n
		switch {
		case n > 0:
		case s.pool.Load() != p:
			// The pool closed while we were waiting for ring space: the
			// workers are gone and the ring will never drain, so finish the
			// frames on an inline lane instead of parking forever.
			w.waiters.Add(-1)
			l := s.claimLane()
			l.runItems(s, items[sent:])
			s.releaseLane(l)
			return
		default:
			w.wakeIfParked()
			<-w.space
		}
		w.waiters.Add(-1)
	}
	if dropped := len(items) - sent; dropped > 0 {
		w.qdrops.Add(uint64(dropped))
		s.inline.drops.Add(uint64(dropped))
		for i := sent; i < len(items); i++ {
			items[i].releaseData()
		}
	}
	w.wakeIfParked()
}

// loop is the worker body: pop a burst, run it to completion, recycle;
// spin briefly when empty, park when genuinely idle.
func (w *dpWorker) loop(s *Switch, done <-chan struct{}) {
	spins := 0
	for {
		n := w.ring.TryPopBatch(w.burst[:])
		if n == 0 {
			if spins < idleSpin {
				// Adaptive idle: under bursty load the next burst usually
				// lands within a few yields; spinning past it skips a full
				// park/wake round trip per burst.
				spins++
				runtime.Gosched()
				continue
			}
			w.parked.Store(true)
			// Recheck after publishing parked: a producer that pushed
			// before the store sees parked=false only if we also see its
			// item here.
			if n = w.ring.TryPopBatch(w.burst[:]); n == 0 {
				select {
				case <-w.wake:
					w.parked.Store(false)
					spins = 0
					continue
				case <-done:
					w.parked.Store(false)
					w.drain(s)
					w.flushWaiters()
					return
				}
			}
			w.parked.Store(false)
		}
		spins = 0
		w.execBurst(s, w.burst[:n])
	}
}

// drain processes everything left in the ring.
func (w *dpWorker) drain(s *Switch) {
	for {
		n := w.ring.TryPopBatch(w.burst[:])
		if n == 0 {
			return
		}
		w.execBurst(s, w.burst[:n])
	}
}

// execBurst runs one drained burst on the worker's lane, records the
// worker's telemetry for it, then tells any backpressured producer that the
// ring has space again.
func (w *dpWorker) execBurst(s *Switch, items []workerItem) {
	w.burstHist[burstBucket(len(items))].Add(1)
	w.lane.runItems(s, items)
	tx := &w.lane.tx
	w.txCoalesced.Add(tx.sent)
	w.txFlushes.Add(tx.flushes)
	tx.sent, tx.flushes = 0, 0
	w.signalSpace()
}

// WorkerStats is the telemetry snapshot of one datapath worker.
type WorkerStats struct {
	// QueueLen is the instantaneous depth of the worker's RX ring.
	QueueLen int
	// QueueCap is the ring capacity.
	QueueCap int
	// Busy reports whether the worker was processing (not parked) at
	// snapshot time.
	Busy bool
	// QueueDrops counts frames tail-dropped because the ring was full.
	QueueDrops uint64
	// Packets counts frames this worker processed.
	Packets uint64
	// BurstHist counts drained bursts by size; BurstHist[i] is the number
	// of bursts of at most BurstBuckets()[i] frames (and more than the
	// previous bucket's bound).
	BurstHist []uint64
	// TxCoalesced counts frames transmitted by the lane's egress flushes.
	TxCoalesced uint64
	// TxFlushes counts SendBatch calls issued by the TX coalescer; the
	// average coalesced batch is TxCoalesced / TxFlushes.
	TxFlushes uint64
}

// WorkerTelemetry snapshots per-worker queue depth and activity; nil for a
// switch without workers.
func (s *Switch) WorkerTelemetry() []WorkerStats {
	if len(s.workers) == 0 {
		return nil
	}
	out := make([]WorkerStats, len(s.workers))
	for i, w := range s.workers {
		hist := make([]uint64, len(w.burstHist))
		for bi := range w.burstHist {
			hist[bi] = w.burstHist[bi].Load()
		}
		out[i] = WorkerStats{
			QueueLen:    w.ring.Len(),
			QueueCap:    w.ring.Cap(),
			Busy:        !w.parked.Load(),
			QueueDrops:  w.qdrops.Load(),
			Packets:     w.ctrs.pipeline.Load(),
			BurstHist:   hist,
			TxCoalesced: w.txCoalesced.Load(),
			TxFlushes:   w.txFlushes.Load(),
		}
	}
	return out
}

// observeLatency records one sampled per-frame latency, building the
// histogram on the first; it and latencySnapshot sit after the datapath core
// so that the core keeps its code alignment (ROADMAP, lesson d).
func (s *Switch) observeLatency(v float64) {
	h := s.latency.Load()
	if h == nil {
		s.latency.CompareAndSwap(nil, telemetry.NewHistogram(telemetry.DatapathLatencyBuckets()...))
		h = s.latency.Load()
	}
	h.Observe(v)
}

// latencySnapshot snapshots the histogram, empty before a burst is timed.
func (s *Switch) latencySnapshot() telemetry.HistogramSnapshot {
	h := s.latency.Load()
	if h == nil {
		h = telemetry.NewHistogram(telemetry.DatapathLatencyBuckets()...)
	}
	return h.Snapshot()
}
