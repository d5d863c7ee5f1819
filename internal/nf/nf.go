// Package nf implements the network functions that run on the compute node:
// the IPsec ESP gateway used in the paper's validation, plus the classic
// native functions the paper cites (firewall/iptables, bridge/linuxbridge,
// NAT) and supporting functions (router, monitor).
//
// A network function is a Processor: pure packet-in, packets-out logic. The
// Runtime binds a Processor to an execution environment (which charges
// per-packet flavor costs to a virtual clock) and to a set of netdev ports
// (which the compute driver wires to a Logical Switch Instance).
package nf

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"unsafe"

	"repro/internal/execenv"
	"repro/internal/netdev"
	"repro/internal/pkt"
)

// Emission is one frame sent out of one NF port.
type Emission struct {
	Port  int
	Frame []byte
}

// Result is what a Processor produces for one input frame.
type Result struct {
	Emissions []Emission
	// CryptoBytes reports how many bytes underwent cryptographic
	// transformation, feeding the execution environment cost model.
	CryptoBytes int
}

// Processor is the packet-processing logic of a network function.
//
// A processor never writes to frame and never retains it past the call:
// the Runtime recycles the frame once Process returns, unless an emission
// hands it on, and benchmark rigs call Process directly on template frames
// they re-send. An emission is either frame itself (or a slice of it),
// forwarded unchanged, or a buffer the processor built — from the
// frame-buffer pool (pkt.GetBuffer) on the packet path. Both the emitted
// frames and the Emissions slice belong to the caller.
type Processor interface {
	// Process handles one frame received on port inPort.
	Process(inPort int, frame []byte) (Result, error)
}

// Configurer is implemented by processors that accept configuration updates
// at runtime (the NF-FG "configuration" section on graph update).
type Configurer interface {
	Configure(config map[string]string) error
}

// Stats are the aggregate counters of a running NF.
type Stats struct {
	RxPackets, TxPackets uint64
	Errors               uint64
}

// Runtime is a running network function: processor + execution environment
// + ports. Frames arriving on any port are processed synchronously in the
// sender's goroutine (run-to-completion), matching the netdev handler model.
type Runtime struct {
	name string
	proc Processor
	env  *execenv.Env
	// recycle takes back a consumed input frame: pkt.PutBuffer, replaced
	// by a recorder in tests.
	recycle func([]byte)

	ports []*netdev.Port

	rx, tx, errs atomic.Uint64
	running      atomic.Bool
}

// NewRuntime creates a runtime with nPorts NF-side ports named
// "<name>.<i>". The caller connects them to switch ports.
func NewRuntime(name string, proc Processor, env *execenv.Env, nPorts int) *Runtime {
	r := &Runtime{name: name, proc: proc, env: env, recycle: pkt.PutBuffer}
	for i := 0; i < nPorts; i++ {
		r.ports = append(r.ports, netdev.NewPort(fmt.Sprintf("%s.%d", name, i)))
	}
	// Time-dependent processors (token buckets, ...) follow the
	// environment's virtual clock.
	if cu, ok := proc.(ClockUser); ok {
		cu.SetClock(env.Clock().Now)
	}
	return r
}

// Name returns the NF instance name.
func (r *Runtime) Name() string { return r.name }

// Env returns the execution environment.
func (r *Runtime) Env() *execenv.Env { return r.env }

// NumPorts returns the number of NF ports.
func (r *Runtime) NumPorts() int { return len(r.ports) }

// Port returns the i-th NF-side port.
func (r *Runtime) Port(i int) *netdev.Port {
	if i < 0 || i >= len(r.ports) {
		return nil
	}
	return r.ports[i]
}

// Processor returns the packet-processing logic, for Configure calls.
func (r *Runtime) Processor() Processor { return r.proc }

// Start boots the execution environment and begins receiving.
func (r *Runtime) Start() {
	if r.running.Swap(true) {
		return
	}
	r.env.Start()
	for i, p := range r.ports {
		i := i
		p.SetHandler(func(f netdev.Frame) { r.receive(i, f) })
	}
}

// Stop quiesces the NF: handlers are removed and the environment stops.
func (r *Runtime) Stop() {
	if !r.running.Swap(false) {
		return
	}
	for _, p := range r.ports {
		p.SetHandler(nil)
	}
	r.env.Stop()
}

// Running reports whether the NF is processing traffic.
func (r *Runtime) Running() bool { return r.running.Load() }

// receive runs one delivered frame through the processor. The runtime owns
// the frame: once the processor, the flavour charge and the sends are done
// with it, it goes back to the pool, unless an emission handed it on.
func (r *Runtime) receive(inPort int, f netdev.Frame) {
	if !r.running.Load() {
		return
	}
	r.rx.Add(1)
	res, err := r.proc.Process(inPort, f.Data)
	if err != nil {
		r.errs.Add(1)
		r.recycle(f.Data)
		return
	}
	// Charge the flavor cost once per input frame.
	r.env.ProcessPacket(f.Data, res.CryptoBytes)
	// A receiver may recycle what it gets, so a buffer never leaves twice:
	// every repeat of an emitted buffer (a flood) gets its own copy. The
	// copies are made before the first send, while the buffer is still ours.
	handedOn := false
	for i := range res.Emissions {
		e := &res.Emissions[i]
		switch {
		case emittedBefore(res.Emissions[:i], e.Frame):
			c := pkt.GetBuffer(len(e.Frame))
			copy(c, e.Frame)
			e.Frame = c
		case r.validPort(e.Port) && sameMemory(e.Frame, f.Data):
			handedOn = true
		}
	}
	for _, e := range res.Emissions {
		if !r.validPort(e.Port) {
			r.errs.Add(1)
			continue
		}
		r.tx.Add(1)
		_ = r.ports[e.Port].Send(netdev.Frame{Data: e.Frame, Hops: f.Hops})
	}
	if !handedOn {
		r.recycle(f.Data)
	}
}

func (r *Runtime) validPort(p int) bool { return p >= 0 && p < len(r.ports) }

// emittedBefore reports whether frame shares memory with an earlier
// emission.
func emittedBefore(earlier []Emission, frame []byte) bool {
	for _, e := range earlier {
		if sameMemory(e.Frame, frame) {
			return true
		}
	}
	return false
}

// sameMemory reports whether a and b share backing memory. It compares the
// address ranges up to each slice's capacity, so two slices of one buffer
// alias even when they start at different offsets.
func sameMemory(a, b []byte) bool {
	if cap(a) == 0 || cap(b) == 0 {
		return false
	}
	pa := uintptr(unsafe.Pointer(unsafe.SliceData(a)))
	pb := uintptr(unsafe.Pointer(unsafe.SliceData(b)))
	return pa < pb+uintptr(cap(b)) && pb < pa+uintptr(cap(a))
}

// Stats returns the runtime counters.
func (r *Runtime) Stats() Stats {
	return Stats{
		RxPackets: r.rx.Load(),
		TxPackets: r.tx.Load(),
		Errors:    r.errs.Load(),
	}
}

// Factory builds a Processor from an NF-FG configuration map.
type Factory func(config map[string]string) (Processor, error)

// Registry maps NF template names to factories. It is the in-process
// counterpart of the paper's "VNF repository" entry point used by drivers.
type Registry struct {
	mu        sync.RWMutex
	factories map[string]Factory
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{factories: make(map[string]Factory)}
}

// Register adds a factory under a template name.
func (r *Registry) Register(name string, f Factory) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.factories[name]; dup {
		return fmt.Errorf("nf: factory %q already registered", name)
	}
	r.factories[name] = f
	return nil
}

// Build instantiates a Processor by template name.
func (r *Registry) Build(name string, config map[string]string) (Processor, error) {
	r.mu.RLock()
	f, ok := r.factories[name]
	r.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("nf: unknown NF template %q", name)
	}
	return f(config)
}

// names returns the registered template names, sorted.
func (r *Registry) names() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]string, 0, len(r.factories))
	for n := range r.factories {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// DefaultRegistry returns a registry with every NF in this package
// registered under its canonical template name.
func DefaultRegistry() *Registry {
	r := NewRegistry()
	must := func(err error) {
		if err != nil {
			panic(err)
		}
	}
	must(r.Register("ipsec", NewIPsecFromConfig))
	must(r.Register("firewall", NewFirewallFromConfig))
	must(r.Register("nat", NewNATFromConfig))
	must(r.Register("bridge", NewBridgeFromConfig))
	must(r.Register("router", NewRouterFromConfig))
	must(r.Register("monitor", NewMonitorFromConfig))
	must(r.Register("shaper", NewShaperFromConfig))
	return r
}
