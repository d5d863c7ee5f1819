// The iPerf stand-in of the reproduction: Run saturates a deployed service
// chain with traffic injected at one node interface, collects what emerges
// at another, and reports throughput.
//
// Every run produces a modelled figure and measured ones, never under one
// label:
//
//   - Simulated Mbps, computed over the virtual clock, which prices the
//     packets the NF instances counted with the flavor cost model when it
//     is read. This is the modelled figure compared against Table 1: it
//     reflects where packets were processed (VM user space vs host
//     kernel), like the paper's testbed measurement.
//   - Wall Mbps, wall ns/packet and allocations/packet, taken over real
//     elapsed time and the runtime's allocation counter. They reflect how
//     fast this Go implementation actually pushed packets (crypto included)
//     and are reported beside the model, not for comparison with the paper.

package bench

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"time"

	"repro/internal/execenv"
	"repro/internal/netdev"
	"repro/internal/pkt"
)

// DefaultBatch is the burst size used when Spec.Batch is unset: frames are
// handed to the dataplane in bursts of this many through the netdev batch
// API, amortizing per-frame synchronization as a NIC RX ring would.
const DefaultBatch = 32

// Spec describes one traffic run.
type Spec struct {
	// Packets is the number of frames to send.
	Packets int
	// FrameSize is the full on-wire frame length in bytes (Ethernet
	// header included); Table 1 uses MTU-sized 1500-byte frames.
	FrameSize int
	// Batch is the number of frames injected per burst (default
	// DefaultBatch; 1 degenerates to frame-at-a-time injection).
	// RunBidirectional ignores it — strict per-frame alternation is the
	// shape of that measurement.
	Batch int
	// VLANID optionally tags the generated traffic (0 = untagged).
	VLANID uint16
	// Flow addressing; zero values get sensible defaults.
	SrcMAC, DstMAC   pkt.MAC
	SrcIP, DstIP     pkt.Addr
	SrcPort, DstPort uint16
}

// withDefaults fills unset spec fields.
func (s Spec) withDefaults() (Spec, error) {
	if s.Packets <= 0 {
		s.Packets = 1000
	}
	if s.Batch <= 0 {
		s.Batch = DefaultBatch
	}
	if s.FrameSize == 0 {
		s.FrameSize = 1500
	}
	if s.SrcMAC == (pkt.MAC{}) {
		s.SrcMAC = pkt.MAC{0x02, 0, 0, 0, 0x99, 0x01}
	}
	if s.DstMAC == (pkt.MAC{}) {
		s.DstMAC = pkt.MAC{0x02, 0, 0, 0, 0x99, 0x02}
	}
	if s.SrcIP == (pkt.Addr{}) {
		s.SrcIP = pkt.Addr{10, 10, 0, 1}
	}
	if s.DstIP == (pkt.Addr{}) {
		s.DstIP = pkt.Addr{10, 10, 0, 2}
	}
	if s.SrcPort == 0 {
		s.SrcPort = 46000
	}
	if s.DstPort == 0 {
		s.DstPort = 5001 // iPerf's default port
	}
	overhead := pkt.EthernetHeaderLen + pkt.IPv4HeaderLen + pkt.UDPHeaderLen
	if s.VLANID != 0 {
		overhead += pkt.VLANHeaderLen
	}
	if s.FrameSize < overhead {
		return s, fmt.Errorf("bench: frame size %d below header overhead %d", s.FrameSize, overhead)
	}
	return s, nil
}

// Frame builds the template frame for the spec.
func (s Spec) Frame() ([]byte, error) {
	spec, err := s.withDefaults()
	if err != nil {
		return nil, err
	}
	overhead := pkt.EthernetHeaderLen + pkt.IPv4HeaderLen + pkt.UDPHeaderLen
	if spec.VLANID != 0 {
		overhead += pkt.VLANHeaderLen
	}
	return pkt.BuildFrame(pkt.FrameSpec{
		SrcMAC: spec.SrcMAC, DstMAC: spec.DstMAC, VLANID: spec.VLANID,
		SrcIP: spec.SrcIP, DstIP: spec.DstIP,
		SrcPort: spec.SrcPort, DstPort: spec.DstPort,
		PayloadLen: spec.FrameSize - overhead, PayloadByte: 0x42,
	})
}

// Report is the outcome of one run.
type Report struct {
	TxPackets uint64
	TxBytes   uint64
	RxPackets uint64
	RxBytes   uint64
	// FrameBytes is the injected frame size, used for goodput.
	FrameBytes int
	// Virtual is the simulated time consumed by the chain's execution
	// environments.
	Virtual time.Duration
	// Wall is the real elapsed time.
	Wall time.Duration
	// Mallocs is the number of heap allocations the whole process made
	// during the run (sender, dataplane and NFs alike).
	Mallocs uint64
}

// LossRate returns the fraction of frames that did not arrive.
func (r Report) LossRate() float64 {
	if r.TxPackets == 0 {
		return 0
	}
	return 1 - float64(r.RxPackets)/float64(r.TxPackets)
}

// MbpsVirtual returns wire throughput over simulated time, counting the
// bytes as they arrive (tunnel overhead included).
func (r Report) MbpsVirtual() float64 {
	if r.Virtual <= 0 {
		return 0
	}
	return float64(r.RxBytes) * 8 / r.Virtual.Seconds() / 1e6
}

// MbpsGoodput returns throughput over simulated time counting delivered
// frames at their injected size — what an iPerf endpoint observes, and the
// figure compared against Table 1 (tunnel overhead excluded).
func (r Report) MbpsGoodput() float64 {
	if r.Virtual <= 0 {
		return 0
	}
	return float64(r.RxPackets) * float64(r.FrameBytes) * 8 / r.Virtual.Seconds() / 1e6
}

// MbpsWall returns throughput over wall-clock time.
func (r Report) MbpsWall() float64 {
	if r.Wall <= 0 {
		return 0
	}
	return float64(r.RxBytes) * 8 / r.Wall.Seconds() / 1e6
}

// NsPerPacket returns the measured wall-clock cost of one delivered frame in
// this Go process, the figure printed beside the modelled Mbps.
func (r Report) NsPerPacket() float64 {
	if r.RxPackets == 0 {
		return 0
	}
	return float64(r.Wall.Nanoseconds()) / float64(r.RxPackets)
}

// AllocsPerPacket returns the measured heap allocations per injected frame.
func (r Report) AllocsPerPacket() float64 {
	if r.TxPackets == 0 {
		return 0
	}
	return float64(r.Mallocs) / float64(r.TxPackets)
}

func (r Report) String() string {
	return fmt.Sprintf("tx %d pkts, rx %d pkts (%.2f%% loss), %.0f Mbps simulated, %.0f Mbps wall",
		r.TxPackets, r.RxPackets, r.LossRate()*100, r.MbpsVirtual(), r.MbpsWall())
}

// drainGrace is how long the post-run drain waits after the last observed
// arrival before declaring the pipeline quiescent. The synchronous datapath
// never pays it (everything has arrived when the send loop ends); with
// datapath workers (vswitch Options.Workers) frames are still in flight in
// the worker rings when the sender finishes, and the grace bounds how long
// stragglers are waited for.
const drainGrace = 20 * time.Millisecond

// settle waits until rx has been silent for drainGrace or every
// transmitted frame is accounted for, yielding the CPU to the datapath
// workers between polls. count must report the frames collected so far.
func settle(count func() uint64, tx uint64) {
	deadline := time.Now().Add(drainGrace)
	last := count()
	for last < tx && time.Now().Before(deadline) {
		runtime.Gosched()
		if n := count(); n != last {
			last = n
			deadline = time.Now().Add(drainGrace)
		}
	}
}

// rxCounter collects arriving frames through a synchronous port handler:
// counting happens on whichever goroutine delivers the frame, so unlike a
// polled receive queue it can never overflow no matter how the dataplane
// schedules delivery. Collected pool-backed buffers are recycled on the
// spot.
type rxCounter struct {
	packets atomic.Uint64
	bytes   atomic.Uint64
}

func (c *rxCounter) attach(p *netdev.Port) {
	p.SetHandler(func(f netdev.Frame) {
		c.packets.Add(1)
		c.bytes.Add(uint64(len(f.Data)))
		pkt.PutBuffer(f.Data)
	})
}

// leg is one direction of a run: the port its frames are injected at and the
// template every one of them repeats.
type leg struct {
	tx    *netdev.Port
	frame []byte
}

// drive is the one drive-and-drain loop: bursts of s.Batch frames go to the
// legs in turn until s.Packets are sent, arrivals at the sinks are counted by
// synchronous handlers installed for the duration of the run (the ports are
// restored to queue mode afterwards), and the clocks and the allocation
// counter are read around the whole. With a synchronous dataplane every frame
// of a burst has fully traversed the chain when SendBatch returns; with an
// asynchronous one (datapath workers) the final settle waits for in-flight
// frames.
func drive(clock *execenv.VirtualClock, s Spec, legs []leg, sinks ...*netdev.Port) (Report, error) {
	rep := Report{FrameBytes: len(legs[0].frame)}
	for i := range legs {
		legs[i].frame = unpoolable(legs[i].frame)
	}
	var rxc rxCounter
	for _, p := range sinks {
		rxc.attach(p)
		defer p.SetHandler(nil)
	}
	burst := make([]netdev.Frame, 0, s.Batch)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	virtualStart := clock.Now()
	wallStart := time.Now()
	for sent, turn := 0, 0; sent < s.Packets; turn++ {
		l := legs[turn%len(legs)]
		n := s.Batch
		if rem := s.Packets - sent; rem < n {
			n = rem
		}
		burst = burst[:0]
		for i := 0; i < n; i++ {
			burst = append(burst, netdev.Frame{Data: l.frame})
		}
		nn, err := l.tx.SendBatch(burst)
		rep.TxPackets += uint64(nn)
		rep.TxBytes += uint64(nn) * uint64(len(l.frame))
		if err != nil {
			return rep, err
		}
		sent += n
	}
	settle(rxc.packets.Load, rep.TxPackets)
	rep.RxPackets = rxc.packets.Load()
	rep.RxBytes = rxc.bytes.Load()
	rep.Virtual = clock.Now() - virtualStart
	rep.Wall = time.Since(wallStart)
	runtime.ReadMemStats(&after)
	rep.Mallocs = after.Mallocs - before.Mallocs
	return rep, nil
}

// Run injects spec.Packets frames into tx in bursts of spec.Batch and
// collects whatever arrives at rx, measuring simulated time on the given
// clock.
func Run(tx, rx *netdev.Port, clock *execenv.VirtualClock, spec Spec) (Report, error) {
	s, err := spec.withDefaults()
	if err != nil {
		return Report{}, err
	}
	frame, err := s.Frame()
	if err != nil {
		return Report{}, err
	}
	return drive(clock, s, []leg{{tx, frame}}, rx)
}

// unpoolable returns the template with a backing array that can never be
// mistaken for a pooled frame buffer. Pass-through chains deliver the very
// slice that was injected; if its capacity happened to equal the pool's
// class, the drain's PutBuffer would push the still-in-use template into
// the shared pool.
func unpoolable(frame []byte) []byte {
	if cap(frame) != pkt.FrameBufferSize {
		return frame
	}
	return append(make([]byte, 0, len(frame)+1), frame...)
}

// RunBidirectional alternates single frames in both directions (a -> b and
// b -> a), the shape of the paper's ESP tunnel-mode measurement where the
// CPE both encrypts egress and decrypts ingress; the strict per-frame
// alternation is the point, so Spec.Batch does not apply here. Counters
// aggregate both directions.
func RunBidirectional(a, b *netdev.Port, clock *execenv.VirtualClock, spec Spec) (Report, error) {
	s, err := spec.withDefaults()
	if err != nil {
		return Report{}, err
	}
	s.Batch = 1
	forward, err := s.Frame()
	if err != nil {
		return Report{}, err
	}
	rs := s
	rs.SrcMAC, rs.DstMAC = s.DstMAC, s.SrcMAC
	rs.SrcIP, rs.DstIP = s.DstIP, s.SrcIP
	rs.SrcPort, rs.DstPort = s.DstPort, s.SrcPort
	reverse, err := rs.Frame()
	if err != nil {
		return Report{}, err
	}
	return drive(clock, s, []leg{{a, forward}, {b, reverse}}, a, b)
}
