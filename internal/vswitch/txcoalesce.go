package vswitch

import (
	"repro/internal/netdev"
	"repro/internal/pkt"
)

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
	edit          []byte // the frame an action list edits: pooled, held for one burst
}

// add appends one frame for the given egress port. The frame data is copied
// into a pool-backed buffer here, because the pipeline's buffer is still the
// switch's (an owning port returns it once the burst has left: receive) or
// the sender's (borrowed), and ownership of the copy passes to the receiver
// at flush: an NF runtime or a sink returns it with pkt.PutBuffer, a peer
// switch still borrows it. hops is the ingress frame's hop count, so a
// forwarding loop across switches runs into netdev.MaxHops instead of the
// stack limit.
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

// release gives the edit buffer back when the burst ends, before the lane's
// flush, so the next switch of an inline chain reuses it. add's mid-burst
// flush keeps it: the current frame's actions may still be editing it.
func (t *txCoalescer) release() {
	if t.edit != nil {
		pkt.PutBuffer(t.edit)
		t.edit = nil
	}
}

// pushVLAN, popVLAN and setMAC edit the frame *data of an action list. The
// first edit of a list copies the lent frame into the edit buffer (own);
// later ones rewrite that copy in place.
func (t *txCoalescer) pushVLAN(data *[]byte, id uint16) {
	if len(*data) >= pkt.EthernetHeaderLen {
		*data = pkt.PushVLANInPlace(t.own(*data, pkt.VLANHeaderLen), id)
	}
}

func (t *txCoalescer) popVLAN(data *[]byte) {
	if _, tagged := pkt.VLANTag(*data); tagged {
		*data = pkt.PopVLANInPlace(t.own(*data, 0))
	}
}

// setMAC writes m at off: 0 for the destination MAC, 6 for the source.
func (t *txCoalescer) setMAC(data *[]byte, off int, m pkt.MAC) {
	if len(*data) >= pkt.EthernetHeaderLen {
		*data = t.own(*data, 0)
		copy((*data)[off:off+6], m[:])
	}
}

// own returns the frame in the edit buffer with room for grow more bytes,
// copying it there unless an earlier edit of its list did.
func (t *txCoalescer) own(data []byte, grow int) []byte {
	if len(t.edit) != 0 && &data[0] == &t.edit[0] {
		return data
	}
	if cap(t.edit) < len(data)+grow {
		pkt.PutBuffer(t.edit)
		t.edit = pkt.GetBuffer(len(data) + grow)
	}
	return t.edit[:copy(t.edit[:cap(t.edit)], data)]
}
