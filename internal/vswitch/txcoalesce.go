package vswitch

import "repro/internal/netdev"

// TX coalescing: while a lane runs a burst, Output actions do not transmit
// frame by frame — they append the frame to a per-egress-port batch owned by
// the lane, and the lane flushes every batch with one Port.SendBatch call at
// the end of the burst (a burst of one flushes a batch of one). The
// downstream hop (an NF tap, a peer switch's batch handler) then sees whole
// bursts instead of single frames, which is what keeps the burst shape intact
// across the service chain. Ordering: a flow's frames always run on the same
// lane (the sender's own inline, the RSS-steered worker's behind rings),
// execute in arrival order within a burst, and append to the egress batch in
// execution order, so per-flow FIFO survives coalescing; frames of one flow
// never split across concurrently-flushed batches because one lane owns the
// whole burst.

// maxTxPorts is the number of distinct egress ports one burst can coalesce
// for; a burst touching more flushes the accumulated batches early and keeps
// going. 16 covers every realistic service-chain fan-out.
const maxTxPorts = 16

// txPortBatch accumulates the frames of one burst bound for one egress port.
type txPortBatch struct {
	num    uint32
	port   *netdev.Port
	frames []netdev.Frame
}

// txCoalescer is a lane's egress accumulator, only ever touched by the
// goroutine running the lane.
type txCoalescer struct {
	n       int // live entries in batches
	batches [maxTxPorts]txPortBatch
	// sent and flushes count frames and SendBatch calls since the worker
	// running the lane last moved them into its telemetry (execBurst).
	sent, flushes uint64
}

// add appends one frame for the given egress port. The frame data is copied
// into a pool-backed buffer here (the pipeline's buffer belongs to the sender
// or is recycled when the burst item finishes), and ownership of the copy
// passes to the receiver at flush; the final consumer may recycle it with
// pkt.PutBuffer. hops is the ingress frame's hop count, so a forwarding loop
// across switches runs into netdev.MaxHops instead of the stack limit.
func (t *txCoalescer) add(num uint32, p *netdev.Port, data []byte, hops int) {
	f := netdev.Frame{Data: data, Hops: hops}.Clone()
	for i := 0; i < t.n; i++ {
		if t.batches[i].num == num {
			t.batches[i].frames = append(t.batches[i].frames, f)
			return
		}
	}
	if t.n == maxTxPorts {
		t.flush()
	}
	// Reuse the slot in place so the frames slice keeps its grown capacity;
	// steady state allocates nothing.
	b := &t.batches[t.n]
	t.n++
	b.num = num
	b.port = p
	b.frames = append(b.frames[:0], f)
}

// flush transmits every accumulated batch, one SendBatch per egress port,
// and resets the coalescer for the next burst.
func (t *txCoalescer) flush() {
	for i := 0; i < t.n; i++ {
		b := &t.batches[i]
		_, _ = b.port.SendBatch(b.frames)
		t.sent += uint64(len(b.frames))
		t.flushes++
		b.frames = b.frames[:0]
		b.port = nil
	}
	t.n = 0
}
