package vswitch

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/netdev"
	"repro/internal/pkt"
	"repro/internal/telemetry"
)

// FlowEntry pairs a match with actions at a priority in the switch's flow
// table.
type FlowEntry struct {
	Priority int
	Cookie   uint64
	Match    Match
	Actions  []Action

	packets atomic.Uint64
	bytes   atomic.Uint64
}

// Stats returns the entry's packet and byte hit counters.
func (e *FlowEntry) Stats() (packets, bytes uint64) {
	return e.packets.Load(), e.bytes.Load()
}

func (e *FlowEntry) String() string {
	acts := make([]string, len(e.Actions))
	for i, a := range e.Actions {
		acts[i] = a.String()
	}
	p, b := e.Stats()
	return fmt.Sprintf("prio=%d cookie=%#x %v actions=%s n_packets=%d n_bytes=%d",
		e.Priority, e.Cookie, e.Match, strings.Join(acts, ","), p, b)
}

// maxPortNum is the highest port number a switch accepts: it bounds what one
// attach can make the port table allocate.
const maxPortNum = 4096

// portTable holds in slot n the port attached under number n, nil if none.
// Attach and detach store one slot; the array is replaced only to grow.
type portTable []atomic.Pointer[netdev.Port]

// lookup returns the port attached under num, or nil.
func (t portTable) lookup(num uint32) *netdev.Port {
	if num < uint32(len(t)) {
		return t[num].Load()
	}
	return nil
}

// Options configures a Switch beyond the defaults.
type Options struct {
	// Workers selects where the datapath lane runs (lane.go), not what it
	// does. 0 (the default) executes received bursts inline in the sender's
	// goroutine: every frame has left the switch when Send/SendBatch
	// returns. N > 0 starts N worker goroutines, each running the same lane
	// behind its own lock-free ring; received frames are steered to a worker
	// by flow-key hash (RSS-style), so a given microflow — and its cache
	// partition — is always handled by the same worker. See the README
	// section "The datapath lane" for how to choose N.
	Workers int
}

// Switch is one Logical Switch Instance: a flow table over a set of
// numbered ports.
//
// The per-packet path is lock-free: the flow table is an immutable snapshot
// behind an atomic pointer, and each port-table slot an atomic pointer. A
// table of cacheMinEntries entries or more gets a partitioned microflow
// cache that memoizes the matched entry per exact flow key (see cache.go); a
// smaller one is walked. A cache hit and a walk allocate nothing. Writers
// serialize on mu, swap the flow table or store a port slot, then advance
// the cache generation so no stale verdict survives a flow-mod or port change.
type Switch struct {
	name string
	dpid uint64

	mu sync.Mutex // serializes mutators; readers never take it

	table atomic.Pointer[flowTable]
	ports atomic.Pointer[portTable]

	cache *microflowCache

	// inline is the counter set of everything that runs in sender context:
	// every inline lane (the whole datapath when Workers == 0), and the
	// steering-side drops/malformed accounting when workers are running.
	inline dpCounters
	// lane is the switch's own inline lane, nil before its first burst;
	// claimLane swaps it out, or takes a spare on nested or concurrent entry.
	lane atomic.Pointer[lane]
	// workers is fixed at construction (nil without a pool) so counter
	// aggregation keeps working after Close.
	workers []*dpWorker
	// pool is non-nil while the worker goroutines are running; receive
	// reads it once per burst to pick where the lane runs.
	pool atomic.Pointer[workerPool]
	// steerPool holds steerScratch grouping buffers for steering (pool
	// switches only).
	steerPool sync.Pool

	latency atomic.Pointer[telemetry.Histogram] // nil until a burst is timed
}

// New creates a switch with an inline datapath.
func New(name string, dpid uint64) *Switch { return NewOptions(name, dpid, Options{}) }

// NewOptions creates a switch from an Options struct. With Workers > 0 the
// worker goroutines start immediately; stop them with Close.
func NewOptions(name string, dpid uint64, o Options) *Switch {
	nw := o.Workers
	if nw < 0 {
		nw = 0
	}
	s := &Switch{
		name:  name,
		dpid:  dpid,
		cache: newMicroflowCache(max(nw, 1)),
	}
	s.table.Store(&flowTable{})
	ports := make(portTable, 8)
	s.ports.Store(&ports)
	if nw > 0 {
		s.steerPool.New = func() any {
			ss := &steerScratch{groups: make([][]workerItem, nw)}
			for i := range ss.groups {
				ss.groups[i] = make([]workerItem, 0, workerBurst)
			}
			return ss
		}
		s.startWorkers(nw)
	}
	return s
}

// Name returns the switch name.
func (s *Switch) Name() string { return s.name }

// DPID returns the datapath identifier.
func (s *Switch) DPID() uint64 { return s.dpid }

// Workers returns the number of datapath workers (0 when the lane runs
// inline).
func (s *Switch) Workers() int { return len(s.workers) }

// eachCtrs visits every datapath counter set: the sender-context one plus
// one per worker.
func (s *Switch) eachCtrs(fn func(*dpCounters)) {
	fn(&s.inline)
	for _, w := range s.workers {
		fn(&w.ctrs)
	}
}

// AddPort attaches a netdev port under the given OpenFlow port number, from
// 1 to 4096, storing one port-table slot (the table is copied only to grow)
// and installing both receive handlers with one port-state swap. Frames
// received on the port enter the pipeline, singly or as whole bursts. The
// sender keeps what it sends: the switch copies a frame on egress and never
// recycles the buffer it received.
func (s *Switch) AddPort(num uint32, p *netdev.Port) error { return s.addPort(num, p, false) }

// AddOwningPort is AddPort for a port whose sender gives up every frame it
// sends, as an NF runtime does: once a received burst has left the switch,
// the switch returns each frame's buffer to the pool (pkt.PutBuffer).
func (s *Switch) AddOwningPort(num uint32, p *netdev.Port) error { return s.addPort(num, p, true) }

func (s *Switch) addPort(num uint32, p *netdev.Port, owned bool) error {
	if num == 0 || num > maxPortNum {
		return fmt.Errorf("vswitch: port number %d outside 1..%d", num, maxPortNum)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	t := *s.ports.Load()
	if t.lookup(num) != nil {
		return fmt.Errorf("vswitch: port %d already present on %s", num, s.name)
	}
	if num >= uint32(len(t)) {
		grown := make(portTable, min(max(int(num)+1, 2*len(t)), maxPortNum+1))
		for i := range t {
			grown[i].Store(t[i].Load())
		}
		s.ports.Store(&grown)
		t = grown
	}
	t[num].Store(p)
	s.cache.invalidate()
	p.SetHandlers(func(f netdev.Frame) {
		one := [1]netdev.Frame{f}
		s.receive(num, one[:], false, owned)
	}, func(fs []netdev.Frame) { s.receive(num, fs, false, owned) })
	return nil
}

// RemovePort detaches a port with one port-state swap and one slot store.
// With workers running, it returns only once the rings have run the frames
// they held, so none of them is classified against the entries of a port
// attached under num later.
func (s *Switch) RemovePort(num uint32) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	t := *s.ports.Load()
	p := t.lookup(num)
	if p == nil {
		return fmt.Errorf("vswitch: port %d not present on %s", num, s.name)
	}
	p.SetHandlers(nil, nil)
	t[num].Store(nil)
	s.cache.invalidate()
	// A worker counts the items it has run, its ring those ever pushed;
	// once Close has taken the pool, it has run what it could.
	if pool := s.pool.Load(); pool != nil {
		for _, w := range pool.workers {
			for pushed := w.ring.Pushed(); w.ctrs.pipeline.Load() < pushed && s.pool.Load() == pool; {
				w.wakeIfParked()
				runtime.Gosched()
			}
		}
	}
	return nil
}

// Port returns the netdev port with the given number, or nil.
func (s *Switch) Port(num uint32) *netdev.Port {
	return s.ports.Load().lookup(num)
}

// Ports returns the attached port numbers, sorted.
func (s *Switch) Ports() []uint32 {
	out := []uint32{}
	t := *s.ports.Load()
	for n := range t {
		if t[n].Load() != nil {
			out = append(out, uint32(n))
		}
	}
	return out
}

// FlowCount returns the number of installed entries.
func (s *Switch) FlowCount() int { return s.table.Load().len() }

// publishTable makes t the table the packet path sees, then retires every
// cached verdict. The caller holds mu. The slot arrays are allocated
// before the first cache-worthy snapshot is stored, so a lane that loads
// one always finds them.
func (s *Switch) publishTable(t *flowTable) {
	if t.cached {
		s.cache.allocSlots()
	}
	s.table.Store(t)
	s.cache.invalidate()
}

// validate refuses an entry whose VLAN IDs do not fit an 802.1Q tag's 12
// bits: such a match could never be met, and such a push would tag a
// different VLAN.
func validate(e *FlowEntry) error {
	if v := e.Match.vlanID; v != nil && *v > 0x0fff {
		return fmt.Errorf("vswitch: dl_vlan=%d does not fit 12 bits", *v)
	}
	for _, a := range e.Actions {
		if p, ok := a.(PushVLANAction); ok && p.VLANID > 0x0fff {
			return fmt.Errorf("vswitch: %v does not fit 12 bits", p)
		}
	}
	return nil
}

// CommitFlows is the one way the flow table changes: it removes every
// entry carrying one of the del cookies and adds the add entries, as one
// copy-on-write snapshot built under mu and published with a single atomic
// store. The snapshot shares every chunk of the last one the commit leaves
// alone (flowTable.commit), so a commit costs what it changes, not the
// table's size. Every added entry is validated first, so a refused one
// leaves the table untouched. The packet path therefore sees either the
// complete old rule set or the complete new one, never a half-reprogrammed
// table. Entries are matched in priority order (highest first); among
// equal priorities the oldest entry wins, as in OpenFlow. A commit that
// removes and adds nothing publishes nothing. It returns how many entries
// were removed.
func (s *Switch) CommitFlows(del []uint64, add []*FlowEntry) (int, error) {
	for _, e := range add {
		if err := validate(e); err != nil {
			return 0, err
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	next, removed := s.table.Load().commit(del, add)
	if next != nil {
		s.publishTable(next)
	}
	return removed, nil
}

// AddFlow installs one flow entry (see CommitFlows).
func (s *Switch) AddFlow(e *FlowEntry) error {
	_, err := s.CommitFlows(nil, []*FlowEntry{e})
	return err
}

// DeleteFlows removes all entries with the given cookie and returns how many
// were removed.
func (s *Switch) DeleteFlows(cookie uint64) int {
	n, _ := s.CommitFlows([]uint64{cookie}, nil)
	return n
}

// SwapFlows atomically replaces every entry carrying delCookie with the
// given entries (see CommitFlows). Added entries keep their own cookies. It
// returns how many entries the swap removed.
func (s *Switch) SwapFlows(delCookie uint64, add []*FlowEntry) (int, error) {
	return s.CommitFlows([]uint64{delCookie}, add)
}

// Flows returns all installed entries in priority order.
func (s *Switch) Flows() []*FlowEntry {
	return s.table.Load().entries()
}

// Misses returns the count of table-miss packets, aggregated across
// datapath lanes.
func (s *Switch) Misses() uint64 {
	var n uint64
	s.eachCtrs(func(c *dpCounters) { n += c.misses.Load() })
	return n
}

// PacketsProcessed returns the count of frames that completed the pipeline,
// aggregated across datapath lanes. A frame is counted after its burst's
// egress flush, so everything counted here has already left the switch.
func (s *Switch) PacketsProcessed() uint64 {
	var n uint64
	s.eachCtrs(func(c *dpCounters) { n += c.pipeline.Load() })
	return n
}

// Drops returns the count of discarded frames (unknown egress, table miss,
// malformed, full worker ring), aggregated across datapath lanes without
// allocating — unlike the full Telemetry snapshot, so completion loops can
// poll it.
func (s *Switch) Drops() uint64 {
	var n uint64
	s.eachCtrs(func(c *dpCounters) { n += c.drops.Load() })
	return n
}

// Malformed returns the count of received frames rejected by header
// parsing. These count as processed and dropped but not as table or cache
// misses.
func (s *Switch) Malformed() uint64 {
	var n uint64
	s.eachCtrs(func(c *dpCounters) { n += c.malformed.Load() })
	return n
}

// receive is the one entry of the datapath: a burst received on inPort goes
// to the lanes behind the worker rings when a pool is running, and runs on
// an inline lane in the caller otherwise. wait selects what a full worker
// ring does: false tail-drops, true parks the caller until there is space.
// owned returns the burst's buffers to the pool once it has left: nothing
// refers to them by then, because every Output copied its frame
// (txCoalescer.add), every edit was made to a copy (txCoalescer.own), and
// steering copied each frame into a ring item.
func (s *Switch) receive(inPort uint32, fs []netdev.Frame, wait, owned bool) {
	if p := s.pool.Load(); p != nil {
		s.steerBatch(p, inPort, fs, wait)
	} else {
		s.runInline(inPort, fs)
	}
	if owned {
		for i := range fs {
			pkt.PutBuffer(fs[i].Data)
		}
	}
}

// Inject runs a frame through the pipeline as if it had been received on
// inPort. Unlike port reception — which tail-drops when a worker ring is
// full, as a NIC ring would — Inject applies backpressure: it parks until
// the worker drains, so an injected frame is never silently lost.
func (s *Switch) Inject(inPort uint32, data []byte) {
	one := [1]netdev.Frame{{Data: data}}
	s.receive(inPort, one[:], true, false)
}

// dump renders the flow table like `ovs-ofctl dump-flows` for debugging.
func (s *Switch) dump() string {
	var b strings.Builder
	cs := s.CacheStats()
	fmt.Fprintf(&b, "switch %s dpid=%#x ports=%v misses=%d cache_hits=%d cache_misses=%d\n",
		s.name, s.dpid, s.Ports(), s.Misses(), cs.Hits, cs.Misses)
	for _, e := range s.Flows() {
		fmt.Fprintf(&b, "  %v\n", e)
	}
	return b.String()
}
