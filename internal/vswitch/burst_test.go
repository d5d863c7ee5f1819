package vswitch

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/netdev"
)

// The burst tests pin down the end-to-end guarantees of burst execution,
// wherever the lane runs (inline, or behind 1 or 4 worker rings): per-flow
// FIFO from SendBatch ingress through steering, burst execution and TX
// coalescing; exactly-once delivery under Inject backpressure; and the
// burst/coalescing telemetry.

// laneModes are the Options.Workers values the burst suite runs under.
var laneModes = []int{0, 1, 4}

// eachLaneMode runs fn as one subtest per lane placement.
func eachLaneMode(t *testing.T, fn func(t *testing.T, workers int)) {
	for _, workers := range laneModes {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) { fn(t, workers) })
	}
}

const (
	udpDstOff  = 36 // 14 Ethernet + 20 IPv4 + src port
	payloadOff = 42 // headers end; the tests stamp a sequence number here
)

// burstRig is a switch whose sink captures (flow, seq) pairs from whole
// delivered batches.
type burstRig struct {
	sw   *Switch
	in   *netdev.Port
	mu   sync.Mutex
	seqs map[uint16][]uint32 // dst port -> delivered sequence numbers
	got  atomic.Uint64
}

func newBurstRig(t *testing.T, workers int) *burstRig {
	t.Helper()
	r := &burstRig{seqs: make(map[uint16][]uint32)}
	r.sw = NewOptions("burst", 1, Options{Workers: workers})
	t.Cleanup(r.sw.Close)
	in, swIn := netdev.Veth("in", "sw-in")
	if err := r.sw.AddPort(1, swIn); err != nil {
		t.Fatal(err)
	}
	r.in = in
	sink, swOut := netdev.Veth("sink", "sw-out")
	record := func(f netdev.Frame) {
		flow := binary.BigEndian.Uint16(f.Data[udpDstOff:])
		seq := binary.BigEndian.Uint32(f.Data[payloadOff:])
		r.mu.Lock()
		r.seqs[flow] = append(r.seqs[flow], seq)
		r.mu.Unlock()
		r.got.Add(1)
	}
	// The batch handler is what the coalesced flush hits; keep a per-frame
	// handler absent so delivery order within a batch is observed as sent.
	sink.SetBatchHandler(func(fs []netdev.Frame) {
		for i := range fs {
			record(fs[i])
		}
	})
	if err := r.sw.AddPort(2, swOut); err != nil {
		t.Fatal(err)
	}
	mustAdd(t, r.sw, &FlowEntry{Match: MatchAll(), Actions: []Action{Output(2)}})
	return r
}

// drops sums the per-worker ring tail-drops.
func (r *burstRig) drops() uint64 {
	var n uint64
	for _, ws := range r.sw.WorkerTelemetry() {
		n += ws.QueueDrops
	}
	return n
}

// checkFlowFIFO asserts every flow's delivered sequence is strictly
// increasing: gaps are legal (ring tail-drop is NIC semantics) but any
// reorder or duplicate breaks monotonicity.
func (r *burstRig) checkFlowFIFO(t *testing.T) {
	t.Helper()
	r.mu.Lock()
	defer r.mu.Unlock()
	for flow, seqs := range r.seqs {
		for i := 1; i < len(seqs); i++ {
			if seqs[i] <= seqs[i-1] {
				t.Fatalf("flow %d: seq %d delivered after %d (position %d of %d): per-flow FIFO violated",
					flow, seqs[i], seqs[i-1], i, len(seqs))
			}
		}
	}
}

// TestBurstPerFlowOrdering is the per-flow FIFO property test of the batched
// path: several senders, each owning a disjoint set of flows, blast random
// mixed-size bursts through SendBatch while workers steer, drain and coalesce
// in batches. Whatever interleaving the scheduler picks, each flow's frames
// must come out in send order.
func TestBurstPerFlowOrdering(t *testing.T) { eachLaneMode(t, testBurstPerFlowOrdering) }

func testBurstPerFlowOrdering(t *testing.T, workers int) {
	r := newBurstRig(t, workers)
	const (
		senders       = 3
		flowsPerSend  = 8
		framesPerFlow = 300
	)
	var sent atomic.Uint64
	var wg sync.WaitGroup
	for g := 0; g < senders; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g) + 1))
			// One template per owned flow, plus one buffer per batch slot:
			// the same flow may occupy several slots of one burst, each with
			// its own sequence stamp, so slots cannot share a buffer.
			frames := make([][]byte, flowsPerSend)
			next := make([]uint32, flowsPerSend)
			for i := range frames {
				frames[i] = frame(t, 0, uint16(5000+g*flowsPerSend+i))
			}
			slots := make([][]byte, 48)
			for i := range slots {
				slots[i] = make([]byte, len(frames[0]))
			}
			batch := make([]netdev.Frame, 0, len(slots))
			left := flowsPerSend * framesPerFlow
			for left > 0 {
				batch = batch[:0]
				n := 1 + rng.Intn(cap(batch))
				if n > left {
					n = left
				}
				for k := 0; k < n; k++ {
					fi := rng.Intn(flowsPerSend)
					copy(slots[k], frames[fi])
					binary.BigEndian.PutUint32(slots[k][payloadOff:], next[fi])
					next[fi]++
					batch = append(batch, netdev.Frame{Data: slots[k]})
				}
				if _, err := r.in.SendBatch(batch); err != nil {
					t.Error(err)
					return
				}
				sent.Add(uint64(n))
				left -= n
			}
		}(g)
	}
	wg.Wait()
	waitFor(t, "burst traffic to finish", func() bool {
		return r.got.Load()+r.drops() >= sent.Load()
	})
	r.sw.Close()
	if r.got.Load() == 0 {
		t.Fatal("nothing delivered")
	}
	r.checkFlowFIFO(t)
}

// TestBurstSingleFlowNoDropsOrdered sends one flow's frames in bursts with
// no competing load: nothing may be dropped, reordered or duplicated, so the
// delivered sequence must be exactly 0..n-1.
func TestBurstSingleFlowNoDropsOrdered(t *testing.T) {
	eachLaneMode(t, testBurstSingleFlowNoDropsOrdered)
}

func testBurstSingleFlowNoDropsOrdered(t *testing.T, workers int) {
	r := newBurstRig(t, workers)
	const n = 512
	// One buffer per batch slot: frames within one burst need distinct
	// sequence stamps, and SendBatch only copies at steering time.
	bufs := make([][]byte, 32)
	for i := range bufs {
		bufs[i] = frame(t, 0, 7777)
	}
	batch := make([]netdev.Frame, 0, len(bufs))
	seq := uint32(0)
	for seq < n {
		batch = batch[:0]
		for k := 0; k < cap(batch) && seq < n; k++ {
			binary.BigEndian.PutUint32(bufs[k][payloadOff:], seq)
			seq++
			batch = append(batch, netdev.Frame{Data: bufs[k]})
		}
		if _, err := r.in.SendBatch(batch); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, "single flow delivered", func() bool { return r.got.Load()+r.drops() >= n })
	r.sw.Close()
	r.mu.Lock()
	seqs := r.seqs[7777]
	r.mu.Unlock()
	if r.drops() == 0 && len(seqs) != n {
		t.Fatalf("delivered %d of %d with no drops recorded", len(seqs), n)
	}
	r.checkFlowFIFO(t)
}

// TestBurstTelemetry checks the new burst counters: the histogram accounts
// for every drained burst, and egress through the coalescer shows up in
// TxCoalesced/TxFlushes.
func TestBurstTelemetry(t *testing.T) {
	r := newBurstRig(t, 2)
	const n = 400
	batch := make([]netdev.Frame, 0, 40)
	data := make([][]byte, 16)
	for i := range data {
		data[i] = frame(t, 0, uint16(6000+i))
	}
	sent := 0
	for sent < n {
		batch = batch[:0]
		for k := 0; k < cap(batch) && sent < n; k++ {
			binary.BigEndian.PutUint32(data[sent%len(data)][payloadOff:], uint32(sent))
			batch = append(batch, netdev.Frame{Data: data[sent%len(data)]})
			sent++
		}
		if _, err := r.in.SendBatch(batch); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, "telemetry traffic to finish", func() bool {
		return r.got.Load()+r.drops() >= uint64(sent)
	})
	r.sw.Close() // the workers record a burst's telemetry after delivering it
	var bursts, framesHist, coalesced, flushes uint64
	buckets := BurstBuckets()
	for _, ws := range r.sw.WorkerTelemetry() {
		if len(ws.BurstHist) != len(buckets) {
			t.Fatalf("BurstHist has %d buckets, want %d", len(ws.BurstHist), len(buckets))
		}
		for bi, c := range ws.BurstHist {
			bursts += c
			framesHist += c * uint64(buckets[bi]) // upper bound per burst
		}
		coalesced += ws.TxCoalesced
		flushes += ws.TxFlushes
	}
	processed := r.sw.PacketsProcessed()
	if bursts == 0 {
		t.Fatal("no bursts recorded in the histogram")
	}
	if framesHist < processed {
		t.Errorf("histogram accounts for at most %d frames < %d processed", framesHist, processed)
	}
	if coalesced == 0 || flushes == 0 {
		t.Fatalf("TX coalescing idle: coalesced=%d flushes=%d", coalesced, flushes)
	}
	if coalesced < flushes {
		t.Errorf("coalesced %d < flushes %d: average batch below one frame", coalesced, flushes)
	}
	if coalesced != r.got.Load() {
		t.Errorf("TxCoalesced = %d, delivered = %d: worker egress must all flow through the coalescer", coalesced, r.got.Load())
	}
}

// TestInjectBackpressureBlocks stalls the only worker behind a blocking
// egress, fills its ring, and checks that Inject parks instead of dropping:
// the injector makes no progress while the worker is stuck and every frame
// comes out exactly once after release.
func TestInjectBackpressureBlocks(t *testing.T) {
	sw := NewOptions("bp", 1, Options{Workers: 1})
	t.Cleanup(sw.Close)
	release := make(chan struct{})
	blocked := make(chan struct{}, 1)
	var delivered atomic.Uint64
	sink, swOut := netdev.Veth("sink", "sw-out")
	sink.SetHandler(func(netdev.Frame) {
		if delivered.Add(1) == 1 {
			blocked <- struct{}{}
			<-release
		}
	})
	if err := sw.AddPort(2, swOut); err != nil {
		t.Fatal(err)
	}
	mustAdd(t, sw, &FlowEntry{Match: MatchAll(), Actions: []Action{Output(2)}})

	data := frame(t, 0, 80)
	sw.Inject(1, data)
	<-blocked // worker stuck inside the egress handler
	const extra = workerRingLen + 32
	injectorDone := make(chan struct{})
	go func() {
		defer close(injectorDone)
		for i := 0; i < extra; i++ {
			sw.Inject(1, data)
		}
	}()
	select {
	case <-injectorDone:
		t.Fatal("injector finished against a stalled worker: backpressure did not block")
	case <-time.After(200 * time.Millisecond):
	}
	close(release)
	select {
	case <-injectorDone:
	case <-time.After(10 * time.Second):
		t.Fatal("injector still blocked after the worker was released")
	}
	waitFor(t, "all injected frames delivered", func() bool {
		return delivered.Load() == extra+1
	})
	for _, ws := range sw.WorkerTelemetry() {
		if ws.QueueDrops != 0 {
			t.Errorf("worker dropped %d backpressured frames", ws.QueueDrops)
		}
	}
}

// TestBatchSteerMalformed checks the per-chunk malformed accounting: garbage
// frames inside a burst are counted as received, malformed and dropped
// without disturbing the valid frames around them.
func TestBatchSteerMalformed(t *testing.T) { eachLaneMode(t, testBatchSteerMalformed) }

func testBatchSteerMalformed(t *testing.T, workers int) {
	r := newBurstRig(t, workers)
	good := frame(t, 0, 4242)
	binary.BigEndian.PutUint32(good[payloadOff:], 1)
	batch := []netdev.Frame{
		{Data: []byte{1, 2, 3}},
		{Data: good},
		{Data: []byte{4, 5}},
	}
	if _, err := r.in.SendBatch(batch); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "malformed burst accounted (malformed frames count as received)", func() bool {
		return r.sw.Malformed() == 2 && r.sw.PacketsProcessed() == 3
	})
	if got := r.got.Load(); got != 1 {
		t.Errorf("delivered = %d, want the one valid frame", got)
	}
}
