package netdev

import (
	"sync/atomic"
)

// Ring is a bounded lock-free queue in the style of Dmitry Vyukov's bounded
// MPMC queue: every cell carries a sequence number that encodes whether it is
// free for the producer or holds a value for the consumer, so producers and
// the consumer never touch a shared lock. The datapath uses one Ring per
// switch worker as its RX feed: any port goroutine may produce (the RSS
// steering hash decides which ring), exactly one worker consumes, giving the
// per-worker run-to-completion model its single-consumer ordering guarantee.
//
// Capacity is rounded up to a power of two. A full ring rejects the push
// (tryPush returns false); the caller decides between tail-drop (NIC
// semantics) and backpressure. A Ring must not be copied after first use.
type Ring[T any] struct {
	mask  uint64
	cells []ringCell[T]

	_   [64]byte // keep producer and consumer cursors on separate cache lines
	enq atomic.Uint64
	_   [64]byte
	deq atomic.Uint64
}

type ringCell[T any] struct {
	seq atomic.Uint64
	val T
}

// NewRing creates a ring with at least the given capacity (minimum 2,
// rounded up to a power of two).
func NewRing[T any](capacity int) *Ring[T] {
	n := 2
	for n < capacity {
		n <<= 1
	}
	r := &Ring[T]{mask: uint64(n - 1), cells: make([]ringCell[T], n)}
	for i := range r.cells {
		r.cells[i].seq.Store(uint64(i))
	}
	return r
}

// Cap returns the ring capacity.
func (r *Ring[T]) Cap() int { return len(r.cells) }

// Len returns the approximate number of queued items; exact only when
// producers and consumer are quiescent.
func (r *Ring[T]) Len() int {
	n := int64(r.enq.Load()) - int64(r.deq.Load())
	if n < 0 {
		return 0
	}
	if n > int64(len(r.cells)) {
		return len(r.cells)
	}
	return int(n)
}

// Pushed returns how many items were ever pushed: with a consumer that
// counts what it has taken, the point it must reach to have taken everything
// queued now.
func (r *Ring[T]) Pushed() uint64 { return r.enq.Load() }

// tryPush enqueues v, returning false when the ring is full. Safe for any
// number of concurrent producers.
func (r *Ring[T]) tryPush(v T) bool {
	pos := r.enq.Load()
	for {
		cell := &r.cells[pos&r.mask]
		diff := int64(cell.seq.Load()) - int64(pos)
		switch {
		case diff == 0:
			if r.enq.CompareAndSwap(pos, pos+1) {
				cell.val = v
				cell.seq.Store(pos + 1)
				return true
			}
			pos = r.enq.Load()
		case diff < 0:
			// The cell still holds an unconsumed value from one lap ago:
			// the ring is full.
			return false
		default:
			pos = r.enq.Load()
		}
	}
}

// tryPop dequeues one item, returning false when the ring is empty. Safe for
// concurrent consumers, though the datapath runs exactly one per ring.
func (r *Ring[T]) tryPop() (T, bool) {
	var zero T
	pos := r.deq.Load()
	for {
		cell := &r.cells[pos&r.mask]
		diff := int64(cell.seq.Load()) - int64(pos+1)
		switch {
		case diff == 0:
			if r.deq.CompareAndSwap(pos, pos+1) {
				v := cell.val
				cell.val = zero // drop the reference for the GC
				cell.seq.Store(pos + r.mask + 1)
				return v, true
			}
			pos = r.deq.Load()
		case diff < 0:
			return zero, false
		default:
			pos = r.deq.Load()
		}
	}
}

// TryPushBatch enqueues as many items of vs as fit, in order, and returns
// how many were taken (0 when the ring is full). The whole prefix is
// reserved with a single CAS on the enqueue cursor — one synchronization
// point per burst instead of one per frame — so a burst from one producer
// occupies consecutive cells and is dequeued in exactly the order it was
// pushed. Safe for any number of concurrent producers; concurrent bursts
// interleave at burst granularity, never within one.
func (r *Ring[T]) TryPushBatch(vs []T) int {
	if len(vs) == 0 {
		return 0
	}
	for {
		pos := r.enq.Load()
		// Count how many consecutive cells starting at pos are free for
		// this lap. A cell observed free here can only be claimed by the
		// producer that wins the cursor CAS below, so the count cannot go
		// stale between the scan and a successful reservation.
		n := 0
		for n < len(vs) {
			cell := &r.cells[(pos+uint64(n))&r.mask]
			if int64(cell.seq.Load()) != int64(pos+uint64(n)) {
				break
			}
			n++
		}
		if n == 0 {
			cell := &r.cells[pos&r.mask]
			if int64(cell.seq.Load())-int64(pos) < 0 {
				// Still holding last lap's value: full.
				return 0
			}
			// Another producer advanced the cursor under us; reload.
			continue
		}
		if r.enq.CompareAndSwap(pos, pos+uint64(n)) {
			for i := 0; i < n; i++ {
				cell := &r.cells[(pos+uint64(i))&r.mask]
				cell.val = vs[i]
				cell.seq.Store(pos + uint64(i) + 1)
			}
			return n
		}
	}
}

// TryPopBatch dequeues up to len(dst) items into dst, in FIFO order, and
// returns how many were taken (0 when the ring is empty). Like TryPushBatch
// it reserves the whole run of ready cells with a single CAS on the dequeue
// cursor, amortizing per-item synchronization the way NIC RX ring polling
// does. Safe for concurrent consumers, though the datapath runs exactly one
// per ring.
func (r *Ring[T]) TryPopBatch(dst []T) int {
	var zero T
	if len(dst) == 0 {
		return 0
	}
	for {
		pos := r.deq.Load()
		n := 0
		for n < len(dst) {
			cell := &r.cells[(pos+uint64(n))&r.mask]
			if int64(cell.seq.Load()) != int64(pos+uint64(n)+1) {
				break
			}
			n++
		}
		if n == 0 {
			cell := &r.cells[pos&r.mask]
			if int64(cell.seq.Load())-int64(pos+1) < 0 {
				return 0
			}
			continue
		}
		if r.deq.CompareAndSwap(pos, pos+uint64(n)) {
			for i := 0; i < n; i++ {
				cell := &r.cells[(pos+uint64(i))&r.mask]
				dst[i] = cell.val
				cell.val = zero // drop the reference for the GC
				cell.seq.Store(pos + uint64(i) + r.mask + 1)
			}
			return n
		}
	}
}
