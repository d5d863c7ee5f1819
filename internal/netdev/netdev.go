// Package netdev provides the virtual network devices of the simulated
// dataplane: ports, veth pairs and bounded frame queues.
//
// A Port is one end of a point-to-point link. Transmitting on a port
// delivers the frame to the peer port. If the peer has a receive handler
// installed (the usual case for switches and network functions) delivery is
// synchronous in the sender's goroutine, modeling run-to-completion packet
// processing as in a kernel softirq. Otherwise the frame lands in the peer's
// bounded RX queue, and is dropped (and counted) when the queue is full, as a
// real NIC ring would. The queue is allocated by the first frame that has to
// wait in it: a port that always has a handler never pays for one.
//
// SendBatch delivers whole bursts run-to-completion through the peer's
// BatchHandler (degrading to per-frame delivery when none is installed),
// amortizing per-frame synchronization the way NIC RX ring polling does.
// Frame copies are backed by the shared buffer pool in package pkt.
package netdev

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/pkt"
)

// MaxHops bounds the number of port traversals of a single frame,
// protecting the simulator from forwarding loops.
const MaxHops = 64

// DefaultQueueLen is the RX ring size used when none is specified.
const DefaultQueueLen = 512

// Frame is a unit of transmission: raw packet bytes plus simulator metadata.
type Frame struct {
	// Data is the on-wire packet, starting at the Ethernet header.
	Data []byte
	// Hops counts port traversals, incremented on every Send.
	Hops int
}

// Clone returns a deep copy of the frame with the hop count preserved. The
// copy is backed by the shared frame-buffer pool (pkt.GetBuffer) and is
// handed on with ownership: an NF runtime, a switch port attached with
// vswitch.AddOwningPort and a traffic sink return it with pkt.PutBuffer once
// it is consumed (README, "Frame ownership").
func (f Frame) Clone() Frame {
	d := pkt.GetBuffer(len(f.Data))
	copy(d, f.Data)
	return Frame{Data: d, Hops: f.Hops}
}

// Stats holds per-port counters, snapshotted by the Stats method on Port.
type Stats struct {
	RxPackets, RxBytes   uint64
	TxPackets, TxBytes   uint64
	RxDropped, TxDropped uint64
}

func (s Stats) String() string {
	return fmt.Sprintf("rx %d pkts/%d B (%d drop), tx %d pkts/%d B (%d drop)",
		s.RxPackets, s.RxBytes, s.RxDropped, s.TxPackets, s.TxBytes, s.TxDropped)
}

// Handler consumes a received frame.
type Handler func(Frame)

// BatchHandler consumes a burst of received frames run-to-completion. The
// slice is only valid for the duration of the call; handlers must not retain
// it (retaining the individual frames' Data is subject to the same ownership
// rules as Handler).
type BatchHandler func([]Frame)

// TapDir tells a tap which way a frame crossed the port.
type TapDir int

// Tap directions.
const (
	TapTx TapDir = iota // frame left through this port
	TapRx               // frame arrived at this port
)

// Tap observes frames crossing a port, e.g. for pcap capture. Taps must not
// retain the frame's data slice.
type Tap func(dir TapDir, f Frame)

// portState is everything the per-frame path needs to know about a port's
// configuration, packed behind one atomic pointer so Send and deliver read it
// with a single load instead of one load per field. The struct is immutable;
// mutators copy-on-write it under linkMu.
type portState struct {
	peer    *Port
	handler Handler
	batch   BatchHandler
	tap     Tap
	up      bool
}

// Port is one endpoint of a virtual link.
//
// The per-frame path (Send/SendBatch/deliver) is lock-free: the whole port
// configuration is one atomic snapshot load, and the only counters it
// maintains are the sender-side TX pair — RX counters are derived. Because a
// link is a lossless cable, everything the peer transmitted either was
// delivered here or was dropped here, so RxPackets is reconstructed at
// snapshot time as the peer's TX delta minus the drops this port counted,
// and the receive fast path pays zero atomic read-modify-writes. The TX
// deltas of past links are folded into a history at Disconnect; the drop
// counters are only touched on the (cold) drop paths.
type Port struct {
	name     string
	state    atomic.Pointer[portState]
	queue    atomic.Pointer[chan Frame] // RX ring, nil until a frame queues
	queueLen int                        // capacity of the RX ring

	txPackets, txBytes, txDropped atomic.Uint64
	rxDropped, rxDroppedBytes     atomic.Uint64

	// rxHist accumulates the frames received over links that have since been
	// disconnected; the base fields snapshot the peer's TX counters and this
	// port's drop counters at Connect time so the current link contributes
	// exactly its own delta. All four are written only under linkMu.
	rxHistPackets, rxHistBytes  uint64
	peerTxBasePkts, peerTxBaseB uint64
	rxDropBasePkts, rxDropBaseB uint64
}

// linkMu serializes every control-plane mutation of port state (cabling,
// admin state, handler and tap installation) across all ports: these are
// rare, and one global lock keeps the copy-on-write portState swaps trivially
// consistent while the per-frame path stays free of it.
var linkMu sync.Mutex

// ErrNotConnected is returned by Send on a port with no peer.
var ErrNotConnected = errors.New("netdev: port not connected")

// ErrPortDown is returned by Send on an administratively down port.
var ErrPortDown = errors.New("netdev: port down")

// ErrHopLimit is returned when a frame exceeds MaxHops traversals.
var ErrHopLimit = errors.New("netdev: hop limit exceeded (forwarding loop?)")

// NewPort creates an unconnected port with the given name and an RX queue of
// DefaultQueueLen frames. Ports start administratively up.
func NewPort(name string) *Port {
	return NewPortQueueLen(name, DefaultQueueLen)
}

// NewPortQueueLen creates an unconnected port with an RX queue of the given
// capacity (minimum 1), allocated only when a frame finds no handler.
func NewPortQueueLen(name string, queueLen int) *Port {
	if queueLen < 1 {
		queueLen = 1
	}
	p := &Port{name: name, queueLen: queueLen}
	p.state.Store(&portState{up: true})
	return p
}

// rxQueue returns the RX ring, allocating it once under linkMu on first use.
func (p *Port) rxQueue() chan Frame {
	if q := p.queue.Load(); q != nil {
		return *q
	}
	linkMu.Lock()
	defer linkMu.Unlock()
	if q := p.queue.Load(); q != nil {
		return *q
	}
	q := make(chan Frame, p.queueLen)
	p.queue.Store(&q)
	return q
}

// mutate copy-on-write-updates the port's state snapshot under linkMu.
func (p *Port) mutate(fn func(*portState)) {
	linkMu.Lock()
	defer linkMu.Unlock()
	st := *p.state.Load()
	fn(&st)
	p.state.Store(&st)
}

// Name returns the port's name.
func (p *Port) Name() string { return p.name }

// QueueCap returns the capacity of the port's RX queue: the largest burst a
// handler-less port can absorb without tail-dropping.
func (p *Port) QueueCap() int { return p.queueLen }

// Peer returns the connected peer port, or nil.
func (p *Port) Peer() *Port { return p.state.Load().peer }

// SetUp sets the administrative state of the port.
func (p *Port) SetUp(up bool) { p.mutate(func(st *portState) { st.up = up }) }

// IsUp reports the administrative state of the port.
func (p *Port) IsUp() bool { return p.state.Load().up }

// SetHandler installs fn as the synchronous receive handler, the one a
// single frame is delivered to. Passing nil removes it; a port with neither
// handler queues what it receives.
func (p *Port) SetHandler(fn Handler) {
	p.mutate(func(st *portState) { st.handler = fn })
}

// SetBatchHandler installs fn as the synchronous burst receive handler,
// preferred over the single-frame handler when whole bursts arrive via
// SendBatch. Passing nil removes it.
func (p *Port) SetBatchHandler(fn BatchHandler) {
	p.mutate(func(st *portState) { st.batch = fn })
}

// SetHandlers installs fn and batch (see SetHandler and SetBatchHandler)
// with one state swap, so no frame sees one installed without the other: a
// switch attaching or detaching the port uses it. Passing nil for both
// reverts the port to queued reception.
func (p *Port) SetHandlers(fn Handler, batch BatchHandler) {
	p.mutate(func(st *portState) { st.handler, st.batch = fn, batch })
}

// SetTap installs an observer for frames crossing the port in either
// direction; nil removes it.
func (p *Port) SetTap(t Tap) {
	p.mutate(func(st *portState) { st.tap = t })
}

// TryRecv dequeues one frame if immediately available.
func (p *Port) TryRecv() (Frame, bool) {
	if q := p.queue.Load(); q != nil {
		select {
		case f := <-*q:
			return f, true
		default:
		}
	}
	return Frame{}, false
}

// Send transmits a frame out of this port to its peer. Delivery is
// synchronous when the peer has a handler, queued otherwise. A full peer
// queue drops the frame and counts it on the receive side.
func (p *Port) Send(f Frame) error {
	st := p.state.Load()
	if st.tap != nil {
		st.tap(TapTx, f)
	}
	if !st.up {
		p.txDropped.Add(1)
		return ErrPortDown
	}
	if st.peer == nil {
		p.txDropped.Add(1)
		return ErrNotConnected
	}
	f.Hops++
	if f.Hops > MaxHops {
		p.txDropped.Add(1)
		return ErrHopLimit
	}
	p.txPackets.Add(1)
	p.txBytes.Add(uint64(len(f.Data)))
	return st.peer.deliver(f)
}

// SendBatch transmits a burst of frames out of this port as one unit,
// amortizing the per-frame synchronization of Send. Each frame's hop count
// is advanced in place; frames exceeding MaxHops are dropped from the burst.
// It returns how many frames were handed to the peer and the first error
// encountered (ErrPortDown and ErrNotConnected fail the whole burst).
func (p *Port) SendBatch(frames []Frame) (int, error) {
	if len(frames) == 0 {
		return 0, nil
	}
	st := p.state.Load()
	if st.tap != nil {
		for _, f := range frames {
			st.tap(TapTx, f)
		}
	}
	if !st.up {
		p.txDropped.Add(uint64(len(frames)))
		return 0, ErrPortDown
	}
	if st.peer == nil {
		p.txDropped.Add(uint64(len(frames)))
		return 0, ErrNotConnected
	}
	var err error
	sent := frames
	dropped := 0
	for i := range frames {
		frames[i].Hops++
		if frames[i].Hops > MaxHops {
			dropped++
			err = ErrHopLimit
		}
	}
	if dropped > 0 {
		p.txDropped.Add(uint64(dropped))
		kept := make([]Frame, 0, len(frames)-dropped)
		for _, f := range frames {
			if f.Hops <= MaxHops {
				kept = append(kept, f)
			}
		}
		sent = kept
	}
	if len(sent) > 0 {
		var bytes uint64
		for _, f := range sent {
			bytes += uint64(len(f.Data))
		}
		p.txPackets.Add(uint64(len(sent)))
		p.txBytes.Add(bytes)
		st.peer.deliverBatch(sent)
	}
	return len(sent), err
}

// deliver receives a frame on this port. The fast path (up, handler
// installed) performs one atomic state load and zero counter updates: the
// frame is implicitly counted by the sender's TX counters, from which this
// port's RX counters are derived at snapshot time.
func (p *Port) deliver(f Frame) error {
	st := p.state.Load()
	if st.tap != nil {
		st.tap(TapRx, f)
	}
	if !st.up {
		// A down receiver silently drops, as a cable into a down NIC
		// would; the sender is not told.
		p.rxDropped.Add(1)
		p.rxDroppedBytes.Add(uint64(len(f.Data)))
		return nil
	}
	if st.handler != nil {
		st.handler(f)
		return nil
	}
	if st.batch != nil {
		one := [1]Frame{f}
		st.batch(one[:])
		return nil
	}
	select {
	case p.rxQueue() <- f:
		return nil
	default:
		p.rxDropped.Add(1)
		p.rxDroppedBytes.Add(uint64(len(f.Data)))
		return nil // tail drop is not an error for the sender
	}
}

// deliverBatch receives a burst on this port. A batch handler gets the whole
// burst in one call; otherwise the burst degrades to per-frame delivery.
func (p *Port) deliverBatch(frames []Frame) {
	st := p.state.Load()
	if st.tap != nil {
		for _, f := range frames {
			st.tap(TapRx, f)
		}
	}
	if !st.up {
		var bytes uint64
		for _, f := range frames {
			bytes += uint64(len(f.Data))
		}
		p.rxDropped.Add(uint64(len(frames)))
		p.rxDroppedBytes.Add(bytes)
		return
	}
	if st.batch != nil {
		st.batch(frames)
		return
	}
	if st.handler != nil {
		for _, f := range frames {
			st.handler(f)
		}
		return
	}
	q := p.rxQueue()
	for _, f := range frames {
		select {
		case q <- f:
		default:
			p.rxDropped.Add(1)
			p.rxDroppedBytes.Add(uint64(len(f.Data)))
		}
	}
}

// rxDeltaLocked returns the packets and bytes received over the current
// link: the peer's TX delta since Connect minus the drops counted here since
// Connect. Caller holds linkMu. The drop counters are read before the peer's
// TX counters so a concurrent burst can only make the result momentarily
// under-count drops (never go negative): every drop is preceded by the
// corresponding TX increment.
func (p *Port) rxDeltaLocked(peer *Port) (pkts, bytes uint64) {
	dropP := p.rxDropped.Load()
	dropB := p.rxDroppedBytes.Load()
	pkts = peer.txPackets.Load() - p.peerTxBasePkts - (dropP - p.rxDropBasePkts)
	bytes = peer.txBytes.Load() - p.peerTxBaseB - (dropB - p.rxDropBaseB)
	return pkts, bytes
}

// snapBasesLocked records the starting point of a new link: the peer's
// current TX counters and this port's current drop counters. Caller holds
// linkMu.
func (p *Port) snapBasesLocked(peer *Port) {
	p.peerTxBasePkts = peer.txPackets.Load()
	p.peerTxBaseB = peer.txBytes.Load()
	p.rxDropBasePkts = p.rxDropped.Load()
	p.rxDropBaseB = p.rxDroppedBytes.Load()
}

// foldRxLocked folds the current link's RX delta into the history, in
// preparation for disconnecting from peer. Caller holds linkMu.
func (p *Port) foldRxLocked(peer *Port) {
	pkts, bytes := p.rxDeltaLocked(peer)
	p.rxHistPackets += pkts
	p.rxHistBytes += bytes
}

// Stats returns a snapshot of the port counters. RX packet and byte counts
// are derived from the peer's TX counters (see Port), so the snapshot takes
// the control-plane link lock; concurrent traffic keeps flowing.
func (p *Port) Stats() Stats {
	linkMu.Lock()
	defer linkMu.Unlock()
	s := Stats{
		RxPackets: p.rxHistPackets,
		RxBytes:   p.rxHistBytes,
		RxDropped: p.rxDropped.Load(),
		TxPackets: p.txPackets.Load(),
		TxBytes:   p.txBytes.Load(),
		TxDropped: p.txDropped.Load(),
	}
	if peer := p.state.Load().peer; peer != nil {
		pkts, bytes := p.rxDeltaLocked(peer)
		s.RxPackets += pkts
		s.RxBytes += bytes
	}
	return s
}

// Connect links two ports as a point-to-point cable. Either port may be
// reconnected later with Disconnect + Connect.
func Connect(a, b *Port) error {
	if a == nil || b == nil {
		return errors.New("netdev: cannot connect nil port")
	}
	if a == b {
		return errors.New("netdev: cannot connect a port to itself")
	}
	linkMu.Lock()
	defer linkMu.Unlock()
	sa, sb := *a.state.Load(), *b.state.Load()
	if sa.peer != nil || sb.peer != nil {
		return fmt.Errorf("netdev: port already connected (%s.peer=%v, %s.peer=%v)",
			a.name, sa.peer != nil, b.name, sb.peer != nil)
	}
	a.snapBasesLocked(b)
	b.snapBasesLocked(a)
	sa.peer, sb.peer = b, a
	a.state.Store(&sa)
	b.state.Store(&sb)
	return nil
}

// Disconnect removes the link between p and its peer, if any. The RX counts
// accumulated over the link are folded into each port's history so Stats
// keeps reporting them after the cable is pulled.
func Disconnect(p *Port) {
	if p == nil {
		return
	}
	linkMu.Lock()
	defer linkMu.Unlock()
	st := *p.state.Load()
	peer := st.peer
	if peer == nil {
		return
	}
	p.foldRxLocked(peer)
	st.peer = nil
	p.state.Store(&st)
	if pst := *peer.state.Load(); pst.peer == p {
		peer.foldRxLocked(p)
		pst.peer = nil
		peer.state.Store(&pst)
	}
}

// Veth creates a connected port pair, analogous to a Linux veth device pair.
func Veth(nameA, nameB string) (*Port, *Port) {
	a, b := NewPort(nameA), NewPort(nameB)
	if err := Connect(a, b); err != nil {
		panic(err) // impossible: both freshly created
	}
	return a, b
}
