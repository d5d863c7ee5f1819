package execenv

import (
	"fmt"
	"sync/atomic"
	"time"
)

// VirtualClock accumulates simulated time. It is shared by every
// environment of one measurement so chain costs add up, and it is safe for
// concurrent use.
type VirtualClock struct {
	ns atomic.Int64
}

// Advance adds d to the clock and returns the new reading.
func (c *VirtualClock) Advance(d time.Duration) time.Duration {
	return time.Duration(c.ns.Add(int64(d)))
}

// Now returns the clock reading.
func (c *VirtualClock) Now() time.Duration {
	return time.Duration(c.ns.Load())
}

// Reset rewinds the clock to zero.
func (c *VirtualClock) Reset() {
	c.ns.Store(0)
}

// Env is one running execution environment: the thing a compute driver
// creates when it starts an NF. It charges packet costs to its clock and,
// for the VM flavor, performs the extra buffer copies for real so that
// wall-clock benchmarks feel the virtualization tax too.
type Env struct {
	name        string
	flavor      Flavor
	model       CostModel
	clock       *VirtualClock
	workloadRAM uint64
	started     atomic.Bool
	packets     atomic.Uint64
	bytes       atomic.Uint64

	// copyBuf is scratch space for the virtio double copy (VM flavor).
	copyBuf []byte
}

// New creates an environment. The clock may be shared across environments;
// pass nil for a private clock.
func New(name string, flavor Flavor, model CostModel, clock *VirtualClock) (*Env, error) {
	if !flavor.Valid() {
		return nil, fmt.Errorf("execenv: unknown flavor %q", flavor)
	}
	if clock == nil {
		clock = &VirtualClock{}
	}
	return &Env{name: name, flavor: flavor, model: model, clock: clock}, nil
}

// Name returns the environment name.
func (e *Env) Name() string { return e.name }

// Flavor returns the environment technology.
func (e *Env) Flavor() Flavor { return e.flavor }

// Clock returns the environment's virtual clock.
func (e *Env) Clock() *VirtualClock { return e.clock }

// SetWorkloadRAM declares the RAM used by the NF workload itself (identical
// across flavors for the same NF; Table 1's strongSwan uses ~19.4 MB).
func (e *Env) SetWorkloadRAM(bytes uint64) { e.workloadRAM = bytes }

// RAM returns the environment's total runtime footprint: flavor base plus
// workload.
func (e *Env) RAM() uint64 { return e.model.BaseRAM(e.flavor) + e.workloadRAM }

// Start charges the flavor's startup latency to the virtual clock. It is
// idempotent.
func (e *Env) Start() time.Duration {
	if e.started.Swap(true) {
		return 0
	}
	d := e.model.StartupTime(e.flavor)
	e.clock.Advance(d)
	return d
}

// Stop marks the environment stopped.
func (e *Env) Stop() { e.started.Store(false) }

// ProcessPacket charges the flavor cost of one packet to the clock and
// returns the charge. For the VM flavor the frame additionally crosses the
// simulated virtio ring: two real copies through guest memory, so the wall
// clock pays for the boundary too. The (possibly relocated) frame bytes are
// returned.
func (e *Env) ProcessPacket(frame []byte, cryptoBytes int) ([]byte, time.Duration) {
	cost := e.model.PacketCost(e.flavor, len(frame), cryptoBytes)
	e.clock.Advance(cost)
	e.packets.Add(1)
	e.bytes.Add(uint64(len(frame)))
	if e.flavor == FlavorVM {
		// host -> guest ring copy, then guest -> host on the way back.
		if cap(e.copyBuf) < len(frame) {
			e.copyBuf = make([]byte, len(frame)*2)
		}
		guest := e.copyBuf[:len(frame)]
		copy(guest, frame)
		copy(frame, guest)
	}
	return frame, cost
}

// Counters returns packets and bytes processed.
func (e *Env) Counters() (packets, bytes uint64) {
	return e.packets.Load(), e.bytes.Load()
}
