package execenv

import (
	"fmt"
	"sync"
	"time"
)

// Counts is the packet work an instance has done: frames processed, their
// bytes, and the bytes that underwent encryption or decryption.
type Counts struct{ Packets, FrameBytes, CryptoBytes uint64 }

// A Meter reports the packet work of one instance since it was created.
// Its counts never go down. The clock calls Counts under its lock, so
// Counts must only read: never block or call back into the clock.
type Meter interface{ Counts() Counts }

// VirtualClock accumulates simulated time. It is shared by every
// environment of one measurement so chain costs add up, and it is safe for
// concurrent use.
//
// A reading is the start-up latencies charged to it plus the modelled
// time of the packet work of every environment started on it, priced when
// the clock is read: the packet path charges it nothing.
type VirtualClock struct {
	mu      sync.Mutex
	charged time.Duration // start-ups, ProcessPacket, and stopped meters
	live    *Env          // started environments with a meter, linked by next/prev
}

// Now returns the clock reading. Readings never go down.
func (c *VirtualClock) Now() time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	t := c.charged
	for e := c.live; e != nil; e = e.next {
		t += e.unfolded()
	}
	return t
}

// Env is one running execution environment: the thing a compute driver
// creates when it starts an NF. It holds the flavor and the cost model
// that price the work of the instance running in it.
type Env struct {
	flavor      Flavor
	model       CostModel
	clock       *VirtualClock
	workloadRAM uint64

	// Guarded by clock.mu (as are priced and unfolded): the meter of a
	// started environment, what its counts came to at Start, and its
	// links in the clock's live list.
	started    bool
	meter      Meter
	base       time.Duration
	prev, next *Env
}

// New creates the environment of the named instance. The clock may be
// shared across environments; pass nil for a private clock.
func New(name string, flavor Flavor, model CostModel, clock *VirtualClock) (*Env, error) {
	if !flavor.Valid() {
		return nil, fmt.Errorf("execenv: %s: unknown flavor %q", name, flavor)
	}
	if clock == nil {
		clock = &VirtualClock{}
	}
	return &Env{flavor: flavor, model: model, clock: clock}, nil
}

// SetWorkloadRAM declares the RAM used by the NF workload itself (identical
// across flavors for the same NF; Table 1's strongSwan uses ~19.4 MB).
func (e *Env) SetWorkloadRAM(bytes uint64) { e.workloadRAM = bytes }

// RAM returns the environment's total runtime footprint: flavor base plus
// workload.
func (e *Env) RAM() uint64 { return e.model.BaseRAM(e.flavor) + e.workloadRAM }

// Start charges the flavor's startup latency to the virtual clock and,
// until Stop, prices the packet work m counts from now on (m may be nil).
// It is idempotent, O(1) and allocates nothing.
func (e *Env) Start(m Meter) time.Duration {
	c := e.clock
	c.mu.Lock()
	defer c.mu.Unlock()
	if e.started {
		return 0
	}
	e.started = true
	d := e.model.StartupTime(e.flavor)
	c.charged += d
	if m != nil {
		e.meter = m
		e.base = e.priced()
		e.prev, e.next = nil, c.live
		if c.live != nil {
			c.live.prev = e
		}
		c.live = e
	}
	return d
}

// Stop marks the environment stopped. It folds the modelled time of its
// meter's work into the clock and unlinks the meter in one step, so no
// reading counts that work twice or drops it.
func (e *Env) Stop() {
	c := e.clock
	c.mu.Lock()
	defer c.mu.Unlock()
	if !e.started {
		return
	}
	e.started = false
	if e.meter == nil {
		return
	}
	c.charged += e.unfolded()
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		c.live = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	}
	e.meter, e.prev, e.next = nil, nil, nil
}

// priced is the modelled time of all the work the meter has counted.
func (e *Env) priced() time.Duration {
	return e.model.Cost(e.flavor, e.meter.Counts())
}

// unfolded is the modelled time of the work the meter counted since Start.
func (e *Env) unfolded() time.Duration { return e.priced() - e.base }

// ProcessPacket charges the flavor cost of one packet to the clock and
// returns it with the frame. It is the one-packet form of the price a
// started environment's meter pays; the packet path does not call it.
func (e *Env) ProcessPacket(frame []byte, cryptoBytes int) ([]byte, time.Duration) {
	cost := e.model.PacketCost(e.flavor, len(frame), cryptoBytes)
	e.clock.mu.Lock()
	e.clock.charged += cost
	e.clock.mu.Unlock()
	return frame, cost
}
