package vswitch

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/netdev"
	"repro/internal/telemetry"
)

// DefaultTables is the number of flow tables a switch starts with.
const DefaultTables = 4

// MissPolicy selects what happens to packets that match no flow entry.
type MissPolicy int

// Table-miss policies.
const (
	MissDrop       MissPolicy = iota // discard silently (count only)
	MissController                   // punt to the controller as packet-in
)

// PacketInReason says why a packet was punted to the controller.
type PacketInReason int

// Packet-in reasons.
const (
	ReasonMiss   PacketInReason = iota // table miss with MissController
	ReasonAction                       // explicit ToController action
)

// PacketIn is the event delivered to the controller callback.
type PacketIn struct {
	InPort  uint32
	TableID int
	Reason  PacketInReason
	Data    []byte
}

// PacketInHandler consumes packet-in events.
type PacketInHandler func(PacketIn)

// FlowEntry pairs a match with actions at a priority inside one table.
type FlowEntry struct {
	Table    int
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
	return fmt.Sprintf("table=%d prio=%d cookie=%#x %v actions=%s n_packets=%d n_bytes=%d",
		e.Table, e.Priority, e.Cookie, e.Match, strings.Join(acts, ","), p, b)
}

// tableSet is one immutable copy-on-write snapshot of the flow tables. The
// packet path loads it once per packet; mutators build a fresh snapshot
// under mu and publish it atomically.
type tableSet struct {
	tables [][]*FlowEntry // per table, sorted by priority descending
	// cached reports whether the tables hold cacheMinEntries entries or
	// more: a lane only consults the microflow cache over such a snapshot.
	cached bool
}

func newTableSet(tables [][]*FlowEntry) *tableSet {
	n := 0
	for _, t := range tables {
		n += len(t)
	}
	return &tableSet{tables: tables, cached: n >= cacheMinEntries}
}

// portTable is the immutable copy-on-write snapshot of the attached ports.
// dense mirrors the map for the common small port numbers so the egress hot
// path indexes an array instead of hashing into a map.
type portTable struct {
	ports  map[uint32]*netdev.Port
	dense  []*netdev.Port // dense[num] == ports[num] for num < len(dense)
	sorted []uint32       // the port numbers, ascending (flood order)
}

// densePortLimit bounds the dense egress index; port numbers above it (rare:
// OpenFlow reserved ranges) fall back to the map.
const densePortLimit = 256

func newPortTable(ports map[uint32]*netdev.Port) *portTable {
	t := &portTable{ports: ports, sorted: make([]uint32, 0, len(ports))}
	for n := range ports {
		t.sorted = append(t.sorted, n)
	}
	slices.Sort(t.sorted)
	maxNum := uint32(0)
	for _, n := range t.sorted {
		if n < densePortLimit {
			maxNum = n
		}
	}
	t.dense = make([]*netdev.Port, maxNum+1)
	for n, p := range ports {
		if n < uint32(len(t.dense)) {
			t.dense[n] = p
		}
	}
	return t
}

// lookup returns the port registered under num, or nil.
func (t *portTable) lookup(num uint32) *netdev.Port {
	if num < uint32(len(t.dense)) {
		return t.dense[num]
	}
	return t.ports[num]
}

// Options configures a Switch beyond the defaults.
type Options struct {
	// Tables is the number of flow tables (minimum 1; 0 means
	// DefaultTables).
	Tables int
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

// Switch is one Logical Switch Instance: a multi-table flow pipeline over a
// set of numbered ports.
//
// The per-packet path is lock-free: flow tables and the port table are
// published as immutable snapshots through atomic pointers, and the miss
// policy and packet-in handler are atomics. Tables of cacheMinEntries
// entries or more get a partitioned microflow cache that memoizes the
// pipeline verdict per exact flow key (see cache.go); smaller ones are
// walked. A cache hit and a walk allocate nothing. Writers serialize on mu,
// clone-and-swap the affected snapshot, then advance the cache generation
// so no stale verdict survives a flow-mod or port change.
type Switch struct {
	name    string
	dpid    uint64
	nTables int

	mu sync.Mutex // serializes mutators; readers never take it

	tables  atomic.Pointer[tableSet]
	ports   atomic.Pointer[portTable]
	miss    atomic.Int32 // MissPolicy
	onPktIn atomic.Pointer[PacketInHandler]

	cache *microflowCache

	// inline is the counter set of everything that runs in sender context:
	// every inline lane (the whole datapath when Workers == 0), and the
	// steering-side drops/malformed accounting when workers are running.
	inline dpCounters
	// lane is the switch's own inline lane; claimLane takes it with one
	// swap and falls back to the spares on nested or concurrent entry.
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

	latency *telemetry.Histogram
}

// New creates a switch with the default number of tables and an inline
// datapath.
func New(name string, dpid uint64) *Switch { return NewOptions(name, dpid, Options{}) }

// NewTables creates a switch with n flow tables (minimum 1).
func NewTables(name string, dpid uint64, n int) *Switch {
	if n < 1 {
		n = 1
	}
	return NewOptions(name, dpid, Options{Tables: n})
}

// NewOptions creates a switch from an Options struct. With Workers > 0 the
// worker goroutines start immediately; stop them with Close.
func NewOptions(name string, dpid uint64, o Options) *Switch {
	nt := o.Tables
	if nt < 1 {
		nt = DefaultTables
	}
	nw := o.Workers
	if nw < 0 {
		nw = 0
	}
	s := &Switch{
		name:    name,
		dpid:    dpid,
		nTables: nt,
		cache:   newMicroflowCache(max(nw, 1)),
		latency: telemetry.NewHistogram(telemetry.DatapathLatencyBuckets()...),
	}
	s.tables.Store(newTableSet(make([][]*FlowEntry, nt)))
	s.ports.Store(newPortTable(make(map[uint32]*netdev.Port)))
	s.lane.Store(&lane{ctrs: &s.inline})
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

// NumTables returns the number of flow tables.
func (s *Switch) NumTables() int { return s.nTables }

// Workers returns the number of datapath workers (0 when the lane runs
// inline).
func (s *Switch) Workers() int { return len(s.workers) }

// SetMissPolicy configures the table-miss behaviour.
func (s *Switch) SetMissPolicy(p MissPolicy) {
	s.miss.Store(int32(p))
}

// SetPacketInHandler installs the controller callback for packet-in events.
func (s *Switch) SetPacketInHandler(fn PacketInHandler) {
	if fn == nil {
		s.onPktIn.Store(nil)
		return
	}
	s.onPktIn.Store(&fn)
}

// eachCtrs visits every datapath counter set: the sender-context one plus
// one per worker.
func (s *Switch) eachCtrs(fn func(*dpCounters)) {
	fn(&s.inline)
	for _, w := range s.workers {
		fn(&w.ctrs)
	}
}

// AddPort attaches a netdev port under the given OpenFlow port number
// (>= 1). Frames received on the port enter the pipeline at table 0, singly
// or as whole bursts via the netdev batch path.
func (s *Switch) AddPort(num uint32, p *netdev.Port) error {
	if num == 0 {
		return fmt.Errorf("vswitch: port number 0 is reserved")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	cur := s.ports.Load().ports
	if _, exists := cur[num]; exists {
		return fmt.Errorf("vswitch: port %d already present on %s", num, s.name)
	}
	next := make(map[uint32]*netdev.Port, len(cur)+1)
	for k, v := range cur {
		next[k] = v
	}
	next[num] = p
	s.ports.Store(newPortTable(next))
	s.cache.invalidate()
	p.SetHandler(func(f netdev.Frame) {
		one := [1]netdev.Frame{f}
		s.receive(num, one[:], false)
	})
	p.SetBatchHandler(func(fs []netdev.Frame) { s.receive(num, fs, false) })
	return nil
}

// RemovePort detaches a port from the switch.
func (s *Switch) RemovePort(num uint32) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	cur := s.ports.Load().ports
	p, exists := cur[num]
	if !exists {
		return fmt.Errorf("vswitch: port %d not present on %s", num, s.name)
	}
	p.SetHandler(nil)
	p.SetBatchHandler(nil)
	next := make(map[uint32]*netdev.Port, len(cur)-1)
	for k, v := range cur {
		if k != num {
			next[k] = v
		}
	}
	s.ports.Store(newPortTable(next))
	s.cache.invalidate()
	return nil
}

// Port returns the netdev port with the given number, or nil.
func (s *Switch) Port(num uint32) *netdev.Port {
	return s.ports.Load().lookup(num)
}

// Ports returns the attached port numbers, sorted.
func (s *Switch) Ports() []uint32 {
	return slices.Clone(s.ports.Load().sorted)
}

// publishTables makes next the tables the packet path sees, then retires
// every cached verdict. The caller holds mu. The slot arrays are allocated
// before the first cache-worthy snapshot is stored, so a lane that loads
// one always finds them.
func (s *Switch) publishTables(next [][]*FlowEntry) {
	ts := newTableSet(next)
	if ts.cached {
		s.cache.allocSlots()
	}
	s.tables.Store(ts)
	s.cache.invalidate()
}

// AddFlow installs a flow entry. Entries in one table are matched in
// priority order (highest first); among equal priorities the oldest entry
// wins, as in OpenFlow. The tables are copy-on-write: the entry becomes
// visible to the packet path with one atomic snapshot swap, after which the
// microflow cache is invalidated.
func (s *Switch) AddFlow(e *FlowEntry) error {
	if e.Table < 0 || e.Table >= s.nTables {
		return fmt.Errorf("vswitch: table %d out of range [0,%d)", e.Table, s.nTables)
	}
	for _, a := range e.Actions {
		if g, ok := a.(GotoTableAction); ok && g.Table <= e.Table {
			return fmt.Errorf("vswitch: goto_table:%d from table %d must move forward", g.Table, e.Table)
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	cur := s.tables.Load().tables
	next := make([][]*FlowEntry, len(cur))
	copy(next, cur)
	t := make([]*FlowEntry, len(cur[e.Table])+1)
	copy(t, cur[e.Table])
	t[len(t)-1] = e
	// Stable: sort.SliceStable keeps insertion order among equal priorities.
	sort.SliceStable(t, func(i, j int) bool { return t[i].Priority > t[j].Priority })
	next[e.Table] = t
	s.publishTables(next)
	return nil
}

// DeleteFlows removes all entries with the given cookie from every table and
// returns how many were removed.
func (s *Switch) DeleteFlows(cookie uint64) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	cur := s.tables.Load().tables
	next := make([][]*FlowEntry, len(cur))
	removed := 0
	for ti, t := range cur {
		kept := make([]*FlowEntry, 0, len(t))
		for _, e := range t {
			if e.Cookie == cookie {
				removed++
			} else {
				kept = append(kept, e)
			}
		}
		next[ti] = kept
	}
	if removed == 0 {
		return 0
	}
	s.publishTables(next)
	return removed
}

// SwapFlows atomically replaces every entry carrying delCookie with the
// given entries: one copy-on-write snapshot is built under mu — old-cookie
// entries filtered out, new entries sorted in — and published with a single
// atomic store. The packet path therefore sees either the complete old rule
// set or the complete new one, never a half-reprogrammed table: the
// steering-gap-free primitive behind graph updates and NF flavor hot-swaps.
// Added entries keep their own cookies (they may differ from delCookie,
// e.g. drain rules installed under a separate cookie for later removal).
// It returns how many entries the swap removed.
func (s *Switch) SwapFlows(delCookie uint64, add []*FlowEntry) (int, error) {
	for _, e := range add {
		if e.Table < 0 || e.Table >= s.nTables {
			return 0, fmt.Errorf("vswitch: table %d out of range [0,%d)", e.Table, s.nTables)
		}
		for _, a := range e.Actions {
			if g, ok := a.(GotoTableAction); ok && g.Table <= e.Table {
				return 0, fmt.Errorf("vswitch: goto_table:%d from table %d must move forward", g.Table, e.Table)
			}
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	cur := s.tables.Load().tables
	next := make([][]*FlowEntry, len(cur))
	removed := 0
	for ti, t := range cur {
		kept := make([]*FlowEntry, 0, len(t))
		for _, e := range t {
			if e.Cookie == delCookie {
				removed++
			} else {
				kept = append(kept, e)
			}
		}
		next[ti] = kept
	}
	for _, e := range add {
		next[e.Table] = append(next[e.Table], e)
	}
	for ti := range next {
		t := next[ti]
		sort.SliceStable(t, func(i, j int) bool { return t[i].Priority > t[j].Priority })
	}
	s.publishTables(next)
	return removed, nil
}

// DeleteAllFlows clears every table and returns the number of removed
// entries.
func (s *Switch) DeleteAllFlows() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	cur := s.tables.Load().tables
	removed := 0
	for _, t := range cur {
		removed += len(t)
	}
	s.publishTables(make([][]*FlowEntry, len(cur)))
	return removed
}

// Flows returns all installed entries in table then priority order.
func (s *Switch) Flows() []*FlowEntry {
	var out []*FlowEntry
	for _, t := range s.tables.Load().tables {
		out = append(out, t...)
	}
	return out
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

// Drops returns the count of discarded frames (unknown egress, miss-drop,
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
func (s *Switch) receive(inPort uint32, fs []netdev.Frame, wait bool) {
	if p := s.pool.Load(); p != nil {
		s.steerBatch(p, inPort, fs, wait)
		return
	}
	s.runInline(inPort, fs)
}

// Inject runs a frame through the pipeline as if it had been received on
// inPort. It is the switch-side half of an OpenFlow packet-out with
// in-port semantics. Unlike port reception — which tail-drops when a worker
// ring is full, as a NIC ring would — Inject applies backpressure: it
// parks until the worker drains, so control-plane packet-outs are never
// silently lost.
func (s *Switch) Inject(inPort uint32, data []byte) {
	one := [1]netdev.Frame{{Data: data}}
	s.receive(inPort, one[:], true)
}

// Output transmits a frame directly out of a port, bypassing the pipeline:
// the switch-side half of a plain OpenFlow packet-out. Unknown ports drop.
// The copy is pool-backed; the final consumer may recycle it with
// pkt.PutBuffer.
func (s *Switch) Output(port uint32, data []byte) {
	p := s.ports.Load().lookup(port)
	if p == nil {
		s.inline.drops.Add(1)
		return
	}
	_ = p.Send(netdev.Frame{Data: data}.Clone())
}

// dump renders the flow tables like `ovs-ofctl dump-flows` for debugging.
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
