package netdev

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

func TestRingCapacityRounding(t *testing.T) {
	for _, tc := range []struct{ ask, want int }{
		{0, 2}, {1, 2}, {2, 2}, {3, 4}, {4, 4}, {5, 8}, {1024, 1024}, {1025, 2048},
	} {
		if got := NewRing[int](tc.ask).Cap(); got != tc.want {
			t.Errorf("NewRing(%d).Cap() = %d, want %d", tc.ask, got, tc.want)
		}
	}
}

func TestRingFIFO(t *testing.T) {
	r := NewRing[int](8)
	if _, ok := r.tryPop(); ok {
		t.Fatal("pop from empty ring succeeded")
	}
	for i := 1; i <= 5; i++ {
		if !r.tryPush(i) {
			t.Fatalf("push %d failed", i)
		}
	}
	if r.Len() != 5 {
		t.Errorf("Len = %d, want 5", r.Len())
	}
	for i := 1; i <= 5; i++ {
		v, ok := r.tryPop()
		if !ok || v != i {
			t.Fatalf("pop = %d, %v; want %d", v, ok, i)
		}
	}
	if _, ok := r.tryPop(); ok {
		t.Fatal("ring not empty after draining")
	}
}

func TestRingFullRejectsPush(t *testing.T) {
	r := NewRing[int](4)
	for i := 0; i < r.Cap(); i++ {
		if !r.tryPush(i) {
			t.Fatalf("push %d failed below capacity", i)
		}
	}
	if r.tryPush(99) {
		t.Fatal("push into full ring succeeded")
	}
	if v, ok := r.tryPop(); !ok || v != 0 {
		t.Fatalf("pop = %d, %v", v, ok)
	}
	if !r.tryPush(99) {
		t.Fatal("push failed after freeing a slot")
	}
}

func TestRingWraparound(t *testing.T) {
	r := NewRing[int](4)
	next := 0
	for round := 0; round < 1000; round++ {
		for i := 0; i < 3; i++ {
			if !r.tryPush(round*3 + i) {
				t.Fatalf("push failed at round %d", round)
			}
		}
		for i := 0; i < 3; i++ {
			v, ok := r.tryPop()
			if !ok || v != next {
				t.Fatalf("pop = %d, %v; want %d", v, ok, next)
			}
			next++
		}
	}
}

func TestRingPopBatch(t *testing.T) {
	r := NewRing[int](16)
	for i := 0; i < 10; i++ {
		r.tryPush(i)
	}
	buf := make([]int, 4)
	for _, want := range []int{4, 4, 2, 0} {
		if got := r.TryPopBatch(buf); got != want {
			t.Fatalf("TryPopBatch = %d, want %d", got, want)
		}
	}
}

func TestRingPushBatchPartial(t *testing.T) {
	r := NewRing[int](4)
	if got := r.TryPushBatch(nil); got != 0 {
		t.Fatalf("TryPushBatch(nil) = %d, want 0", got)
	}
	if got := r.TryPushBatch([]int{0, 1, 2, 3, 4, 5}); got != 4 {
		t.Fatalf("TryPushBatch over capacity = %d, want 4", got)
	}
	if got := r.TryPushBatch([]int{9}); got != 0 {
		t.Fatalf("TryPushBatch into full ring = %d, want 0", got)
	}
	for i := 0; i < 4; i++ {
		if v, ok := r.tryPop(); !ok || v != i {
			t.Fatalf("pop = %d, %v; want %d", v, ok, i)
		}
	}
}

func TestRingBatchWraparound(t *testing.T) {
	// Mixed batch sizes over a tiny ring force the batch paths across the
	// wrap boundary on every lap, with partial acceptance when a batch
	// straddles the remaining space.
	r := NewRing[int](4)
	in, out := 0, 0
	buf := make([]int, 3)
	vals := make([]int, 3)
	for round := 0; round < 1000; round++ {
		n := 1 + round%3
		for i := 0; i < n; i++ {
			vals[i] = in + i
		}
		pushed := r.TryPushBatch(vals[:n])
		in += pushed
		for pushed < n {
			// Drain one and retry the remainder so partial pushes are
			// exercised, not just avoided.
			v, ok := r.tryPop()
			if !ok || v != out {
				t.Fatalf("pop = %d, %v; want %d", v, ok, out)
			}
			out++
			m := r.TryPushBatch(vals[pushed:n])
			in += m
			pushed += m
		}
		for out < in-1 {
			k := r.TryPopBatch(buf)
			if k == 0 {
				t.Fatalf("TryPopBatch = 0 with %d queued", in-out)
			}
			for i := 0; i < k; i++ {
				if buf[i] != out {
					t.Fatalf("TryPopBatch[%d] = %d, want %d", i, buf[i], out)
				}
				out++
			}
		}
	}
}

func TestRingPopBatchEmpty(t *testing.T) {
	r := NewRing[int](8)
	if got := r.TryPopBatch(make([]int, 4)); got != 0 {
		t.Fatalf("TryPopBatch on empty ring = %d, want 0", got)
	}
	if got := r.TryPopBatch(nil); got != 0 {
		t.Fatalf("TryPopBatch(nil) = %d, want 0", got)
	}
}

// TestRingConcurrentBatchProducers is the batched MPMC exactly-once check:
// several producers pushing bursts, several consumers popping bursts, every
// value seen exactly once and each producer's own sequence in FIFO order.
func TestRingConcurrentBatchProducers(t *testing.T) {
	const producers, consumers, perProducer = 4, 2, 10000
	r := NewRing[[2]int](64)
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			batch := make([][2]int, 0, 7)
			i := 0
			for i < perProducer {
				batch = batch[:0]
				for k := 0; k < 1+i%7 && i < perProducer; k++ {
					batch = append(batch, [2]int{p, i})
					i++
				}
				sent := 0
				for sent < len(batch) {
					n := r.TryPushBatch(batch[sent:])
					if n == 0 {
						runtime.Gosched()
						continue
					}
					sent += n
				}
			}
		}(p)
	}
	prodDone := make(chan struct{})
	go func() { wg.Wait(); close(prodDone) }()

	seen := make([]atomic.Bool, producers*perProducer)
	var consumed atomic.Int64
	var cwg sync.WaitGroup
	for c := 0; c < consumers; c++ {
		cwg.Add(1)
		go func() {
			defer cwg.Done()
			buf := make([][2]int, 11)
			lastPerProducer := make([]int, producers)
			for i := range lastPerProducer {
				lastPerProducer[i] = -1
			}
			for {
				n := r.TryPopBatch(buf)
				if n == 0 {
					select {
					case <-prodDone:
						if n = r.TryPopBatch(buf); n == 0 {
							return
						}
					default:
						runtime.Gosched()
						continue
					}
				}
				for i := 0; i < n; i++ {
					p, v := buf[i][0], buf[i][1]
					if seen[p*perProducer+v].Swap(true) {
						t.Errorf("value %d/%d consumed twice", p, v)
						return
					}
					// A single consumer must observe each producer's values
					// in increasing order: batch reservation keeps bursts
					// contiguous and the cursor is strictly FIFO.
					if v <= lastPerProducer[p] {
						t.Errorf("producer %d: value %d after %d (reordered)", p, v, lastPerProducer[p])
						return
					}
					lastPerProducer[p] = v
					consumed.Add(1)
				}
			}
		}()
	}
	cwg.Wait()
	if got := consumed.Load(); got != producers*perProducer {
		t.Fatalf("consumed %d values, want %d", got, producers*perProducer)
	}
}

// TestRingConcurrentProducers drives the MPMC path the datapath uses: many
// producers, one consumer, every value delivered exactly once.
func TestRingConcurrentProducers(t *testing.T) {
	const producers, perProducer = 4, 10000
	r := NewRing[int](256)
	seen := make([]atomic.Bool, producers*perProducer)
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < perProducer; i++ {
				v := p*perProducer + i
				for !r.tryPush(v) {
					runtime.Gosched()
				}
			}
		}(p)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	got := 0
	for got < producers*perProducer {
		v, ok := r.tryPop()
		if !ok {
			select {
			case <-done:
				// Every push has completed; an empty ring now means loss.
				if v, ok = r.tryPop(); !ok {
					t.Fatalf("producers done, ring empty, only %d/%d consumed", got, producers*perProducer)
				}
			default:
				runtime.Gosched()
				continue
			}
		}
		if seen[v].Swap(true) {
			t.Fatalf("value %d consumed twice", v)
		}
		got++
	}
	if _, ok := r.tryPop(); ok {
		t.Fatal("ring not empty after consuming everything")
	}
}
