package cluster

import (
	"bytes"
	"container/heap"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"repro/internal/telemetry"
)

// The simulator runs replicas in virtual time. It is their clock: Now is
// the virtual instant, AfterFunc pushes onto one event heap, Int63n draws
// from one seeded source. A replica dials a peer and then dispatches the
// call as a zero-delay AfterFunc; the simulator pairs the two and delivers
// the call after a per-link delay drawn from the same source, through a
// LocalNetwork whose cuts and downs it injects. One goroutine pops events
// in (time, insertion) order and checks four invariants after each:
//
//   - at most one leader per term;
//   - at most one IsLeader() at any virtual instant;
//   - byte-identical stores at equal applied (term, seq);
//   - a leader that keeps its quorum keeps its lease.
//
// A seed is the whole schedule: replay one, with its event trace, by
// go test -run '^TestName$' -sim.seed N ./internal/cluster.

var (
	simSeeds = flag.Int("sim.seeds", 500, "how many seeds each simulator scenario runs (seeds 1..N)")
	simSeed  = flag.Int64("sim.seed", 0, "replay only this seed and print its event trace")
)

// simEpoch is virtual time zero.
var simEpoch = time.Date(2000, 1, 1, 0, 0, 0, 0, time.UTC)

// The simulated replicas time themselves as the chaos harness does.
const (
	simHeartbeat = 10 * time.Millisecond
	simLease     = 120 * time.Millisecond
)

type simEvent struct {
	at time.Time
	n  uint64 // insertion order: breaks ties
	f  func()
}

type simQueue []*simEvent

func (q simQueue) Len() int { return len(q) }
func (q simQueue) Less(i, j int) bool {
	if !q[i].at.Equal(q[j].at) {
		return q[i].at.Before(q[j].at)
	}
	return q[i].n < q[j].n
}
func (q simQueue) Swap(i, j int) { q[i], q[j] = q[j], q[i] }
func (q *simQueue) Push(x any)   { *q = append(*q, x.(*simEvent)) }
func (q *simQueue) Pop() any {
	old := *q
	ev := old[len(old)-1]
	*q = old[:len(old)-1]
	return ev
}

type link struct{ from, to string }

type stall struct {
	d    time.Duration
	once bool
}

type sim struct {
	seed  int64
	now   time.Time
	n     uint64
	queue simQueue
	rng   *rand.Rand
	net   *LocalNetwork
	ids   []string
	nodes map[string]*Cluster

	// dialed is the link of the RPC about to be dispatched; maxDelay
	// bounds a delivery's delay, stalls override it per link.
	dialed   link
	maxDelay time.Duration
	stalls   map[link]stall
	// snapshots counts the snapshot appends sent over each link, failed
	// ones included; lose makes a link lose the reply to its next snapshot
	// append after delivering the append.
	snapshots map[link]int
	lose      map[link]bool
	// onVote, when set, sees each vote call as it is delivered, before
	// its caller handles the reply: a stall set there delays the call the
	// reply leads to.
	onVote func(l link, req VoteRequest, reply VoteReply)

	trace *bytes.Buffer // nil unless the seed is traced
	// watch, when set, is checked after every event beside the
	// invariants.
	watch func() error
	err   error // the first violation; the run stops at it

	termLeader map[uint64]string
	stores     map[[2]uint64][]byte // (term, seq) -> the store serialized there
	seen       []seen               // by index in ids
}

// seen is what the invariants remember of one replica.
type seen struct {
	at     [2]uint64 // (term, seq) of its store at the last check
	intact bool      // up, with a quorum up and not cut from it
	since  time.Time // quorum intact since (zero: not intact)
	armed  bool      // lease renewed by a round started since
}

// newSim builds replicas ids on a fresh fabric in virtual time; mutate may
// adjust each one's options. Nothing runs until a replica is started.
func newSim(seed int64, ids []string, mutate func(id string, o *Options)) *sim {
	s := &sim{
		seed:       seed,
		now:        simEpoch,
		rng:        rand.New(rand.NewSource(seed)),
		net:        NewLocalNetwork(),
		ids:        ids,
		nodes:      make(map[string]*Cluster),
		maxDelay:   2 * time.Millisecond,
		stalls:     make(map[link]stall),
		snapshots:  make(map[link]int),
		lose:       make(map[link]bool),
		termLeader: make(map[uint64]string),
		stores:     make(map[[2]uint64][]byte),
		seen:       make([]seen, len(ids)),
	}
	if *simSeed != 0 {
		s.trace = new(bytes.Buffer)
	}
	var peers []PeerSpec
	for _, id := range ids {
		peers = append(peers, PeerSpec{ID: id, Addr: "http://" + id})
	}
	for _, id := range ids {
		o := Options{
			ID:                id,
			ClusterID:         "test",
			Peers:             peers,
			Transport:         simTransport{s: s, from: id, inner: s.net.Transport(id)},
			HeartbeatInterval: simHeartbeat,
			LeaseDuration:     simLease,
			CommitTimeout:     time.Second,
			Journal:           telemetry.NewJournal(0),
			Logf:              s.tracef,
		}
		if mutate != nil {
			mutate(id, &o)
		}
		c, err := New(o)
		if err != nil {
			panic(err)
		}
		c.clk = s
		s.net.Register(id, c)
		s.nodes[id] = c
	}
	s.faulted()
	return s
}

// Now, AfterFunc and Int63n make the simulator the replicas' clock.
func (s *sim) Now() time.Time { return s.now }

func (s *sim) AfterFunc(d time.Duration, f func()) {
	if d == 0 {
		l := s.dialed
		if l.from == "" {
			panic("cluster: a zero-delay AfterFunc that no Dial preceded")
		}
		s.dialed = link{}
		d = time.Duration(s.rng.Int63n(int64(s.maxDelay)))
		if st, ok := s.stalls[l]; ok {
			d = st.d
			if st.once {
				delete(s.stalls, l)
			}
		}
	}
	s.after(d, f)
}

func (s *sim) Int63n(n int64) int64 { return s.rng.Int63n(n) }

func (s *sim) after(d time.Duration, f func()) {
	s.n++
	heap.Push(&s.queue, &simEvent{at: s.now.Add(d), n: s.n, f: f})
}

func (s *sim) tracef(format string, args ...any) {
	if s.trace != nil {
		fmt.Fprintf(s.trace, "%10.3fms ", float64(s.now.Sub(simEpoch))/1e6)
		fmt.Fprintf(s.trace, format, args...)
		s.trace.WriteByte('\n')
	}
}

// simTransport notes the link of each Dial for the dispatch that follows
// it, and traces every call it carries.
type simTransport struct {
	s     *sim
	from  string
	inner Transport
}

type simPeer struct {
	s        *sim
	from, to string
	inner    Peer
}

func (t simTransport) Dial(id string) (Peer, error) {
	t.s.dialed = link{t.from, id}
	p, err := t.inner.Dial(id)
	return simPeer{s: t.s, from: t.from, to: id, inner: p}, err
}

func (p simPeer) RequestVote(req VoteRequest) (VoteReply, error) {
	reply, err := p.inner.RequestVote(req)
	if p.s.onVote != nil && err == nil {
		p.s.onVote(link{p.from, p.to}, req, reply)
	}
	if p.s.trace != nil {
		p.s.tracef("%s>%s vote term %d pre %v: %+v %v", p.from, p.to, req.Term, req.Pre, reply, err)
	}
	return reply, err
}

func (p simPeer) Append(req AppendRequest) (AppendReply, error) {
	reply, err := p.inner.Append(req)
	if l := (link{p.from, p.to}); req.Snapshot != nil {
		p.s.snapshots[l]++
		if err == nil && p.s.lose[l] {
			delete(p.s.lose, l)
			reply, err = AppendReply{}, errors.New("sim: reply lost")
		}
	}
	if p.s.trace != nil {
		p.s.tracef("%s>%s append term %d commit %d ops %d snapshot %v: %+v %v", p.from, p.to, req.Term, req.CommitSeq, len(req.Ops), req.Snapshot != nil, reply, err)
	}
	return reply, err
}

func (s *sim) start(ids ...string) {
	if len(ids) == 0 {
		ids = s.ids
	}
	for _, id := range ids {
		s.nodes[id].Start()
	}
}

// The faults: each is traced, and re-reads which replicas keep a quorum.
func (s *sim) partition(a, b string) { s.tracef("cut %s-%s", a, b); s.net.Partition(a, b); s.faulted() }
func (s *sim) heal(a, b string)      { s.tracef("heal %s-%s", a, b); s.net.Heal(a, b); s.faulted() }
func (s *sim) isolate(id string)     { s.tracef("isolate %s", id); s.net.Isolate(id); s.faulted() }
func (s *sim) rejoin(id string)      { s.tracef("rejoin %s", id); s.net.Rejoin(id); s.faulted() }
func (s *sim) setDown(id string, down bool) {
	s.tracef("down %s %v", id, down)
	s.net.SetDown(id, down)
	s.faulted()
}

// faulted records, for each replica, whether it is up with a quorum's
// worth of peers up and not cut from it.
func (s *sim) faulted() {
	n := s.net
	n.mu.Lock()
	defer n.mu.Unlock()
	for i, id := range s.ids {
		reach := 0
		for _, p := range s.ids {
			if !n.down[id] && !n.down[p] && (p == id || !n.cut[pairKey(id, p)]) {
				reach++
			}
		}
		s.seen[i].intact = reach >= len(s.ids)/2+1
	}
}

// step runs the next event and checks the invariants after it.
func (s *sim) step() {
	ev := heap.Pop(&s.queue).(*simEvent)
	s.now = ev.at
	ev.f()
	if err := s.check(); err != nil {
		s.err = fmt.Errorf("at %v: %w", s.now.Sub(simEpoch), err)
		return
	}
	if s.watch != nil {
		if err := s.watch(); err != nil {
			s.err = fmt.Errorf("at %v: %w", s.now.Sub(simEpoch), err)
		}
	}
}

// runFor runs every event due within d, then advances the clock to d.
func (s *sim) runFor(d time.Duration) error {
	end := s.now.Add(d)
	for s.err == nil && len(s.queue) > 0 && !s.queue[0].at.After(end) {
		s.step()
	}
	if s.err == nil {
		s.now = end
	}
	return s.err
}

// runUntil runs events until cond holds, failing after limit.
func (s *sim) runUntil(limit time.Duration, what string, cond func() bool) error {
	end := s.now.Add(limit)
	for s.err == nil && !cond() {
		if len(s.queue) == 0 || s.queue[0].at.After(end) {
			return fmt.Errorf("no %s within %v (at %v)", what, limit, s.now.Sub(simEpoch))
		}
		s.step()
	}
	return s.err
}

// check holds the four invariants at the current instant.
func (s *sim) check() error {
	holders := 0
	for i, id := range s.ids {
		c, w := s.nodes[id], &s.seen[i]
		c.mu.Lock()
		role, term, leased, leaseUntil := c.role, c.term, c.leasedLocked(), c.leaseUntil
		c.mu.Unlock()
		if role == roleLeader {
			if l, ok := s.termLeader[term]; ok && l != id {
				return fmt.Errorf("two leaders in term %d: %s and %s", term, l, id)
			}
			s.termLeader[term] = id
		}
		if leased {
			holders++
		}
		if holders > 1 {
			return fmt.Errorf("two replicas hold a lease: %v", s.leaseHolders())
		}
		if term, seq := c.store.LastTermSeq(); [2]uint64{term, seq} != w.at {
			w.at = [2]uint64{term, seq}
			ser := c.store.Serialize()
			if prev, ok := s.stores[w.at]; ok && !bytes.Equal(prev, ser) {
				return fmt.Errorf("%s at (term %d, seq %d) holds\n%s\nanother replica held\n%s", id, term, seq, ser, prev)
			}
			s.stores[w.at] = ser
		}
		// The lease invariant holds for a replica whose heartbeat renews
		// its lease at least twice per lease.
		if !w.intact || 2*c.opts.HeartbeatInterval > c.opts.LeaseDuration {
			w.since, w.armed = time.Time{}, false
			continue
		}
		if w.since.IsZero() {
			w.since = s.now
		}
		if w.armed && !leased {
			return fmt.Errorf("%s lost its lease (term %d) with its quorum intact since %v", id, term, w.since.Sub(simEpoch))
		}
		// Armed once a round started with the quorum intact renewed it.
		w.armed = leased && !leaseUntil.Add(-c.opts.LeaseDuration).Before(w.since)
	}
	return nil
}

func (s *sim) leaseHolders() []string {
	var out []string
	for _, id := range s.ids {
		if s.nodes[id].IsLeader() {
			out = append(out, id)
		}
	}
	return out
}

// leader returns the replica holding the lease, or nil.
func (s *sim) leader() *Cluster {
	for _, id := range s.ids {
		if c := s.nodes[id]; c.IsLeader() {
			return c
		}
	}
	return nil
}

// settle runs until one replica holds the lease and every replica follows
// it, and returns it.
func (s *sim) settle() (*Cluster, error) {
	var lead *Cluster
	err := s.runUntil(5*time.Second, "leader every replica follows", func() bool {
		lead = s.leader()
		if lead == nil {
			return false
		}
		for _, c := range s.nodes {
			if id, _ := c.Leader(); id != lead.self {
				return false
			}
		}
		return true
	})
	return lead, err
}

// followers lists the replicas other than lead, by id.
func (s *sim) followers(lead *Cluster) []*Cluster {
	var out []*Cluster
	for _, id := range s.ids {
		if id != lead.self {
			out = append(out, s.nodes[id])
		}
	}
	return out
}

// propose stages an op on c and ships it at once, as WaitCommit does,
// without waiting.
func (s *sim) propose(c *Cluster, kind OpKind, key, data string) (uint64, error) {
	seq, err := c.Propose(kind, key, json.RawMessage(data))
	if err != nil {
		return 0, err
	}
	s.tracef("%s proposes %s %s seq %d", c.self, kind, key, seq)
	c.mu.Lock()
	c.broadcastLocked()
	c.unlock()
	return seq, nil
}

// waitCommit is WaitCommit in virtual time: it ships at once, then runs
// events until the wait is over.
func (s *sim) waitCommit(c *Cluster, seq uint64) error {
	c.mu.Lock()
	start := s.now
	if c.commitSeq < seq {
		c.broadcastLocked()
	}
	c.unlock()
	var werr error
	err := s.runUntil(2*c.opts.CommitTimeout, "end to a commit wait", func() bool {
		c.mu.Lock()
		defer c.mu.Unlock()
		done, err := c.waitDoneLocked(seq, start)
		werr = err
		return done
	})
	if err != nil {
		return err
	}
	return werr
}

// record is Record in virtual time.
func (s *sim) record(c *Cluster, kind OpKind, key, data string) error {
	seq, err := c.Propose(kind, key, json.RawMessage(data))
	if err != nil {
		return err
	}
	s.tracef("%s records %s %s seq %d", c.self, kind, key, seq)
	return s.waitCommit(c, seq)
}

// converged reports whether every replica's store matches c's.
func (s *sim) converged(c *Cluster) bool {
	want := c.Store().Serialize()
	for _, o := range s.nodes {
		if !bytes.Equal(o.Store().Serialize(), want) {
			return false
		}
	}
	return true
}

// dump appends each replica's journal and store to the trace.
func (s *sim) dump() {
	if s.trace == nil {
		return
	}
	for _, id := range s.ids {
		c := s.nodes[id]
		for _, ev := range c.opts.Journal.Events() {
			fmt.Fprintf(s.trace, "%s journal %10.3fms %s %s %s\n", id, float64(ev.Time.Sub(simEpoch))/1e6, ev.Type, ev.Node, ev.Detail)
		}
		fmt.Fprintf(s.trace, "%s store %s\n", id, c.Store().Serialize())
	}
}

// simSeedList is the tier-1 seed set, 1..-sim.seeds, or the one seed
// -sim.seed replays.
func simSeedList() []int64 {
	if *simSeed != 0 {
		return []int64{*simSeed}
	}
	seeds := make([]int64, *simSeeds)
	for i := range seeds {
		seeds[i] = int64(i + 1)
	}
	return seeds
}

// forSeeds runs scenario once per seed of the seed set, each on a fresh
// simulator of replicas ids, in parallel with the other tests, and fails at the first seed that fails,
// naming the command that replays it.
func forSeeds(t *testing.T, ids []string, mutate func(id string, o *Options), scenario func(s *sim) error) {
	t.Helper()
	t.Parallel()
	for _, seed := range simSeedList() {
		runSeed(t, seed, ids, mutate, scenario)
	}
}

func runSeed(t *testing.T, seed int64, ids []string, mutate func(id string, o *Options), scenario func(s *sim) error) {
	t.Helper()
	s := newSim(seed, ids, mutate)
	err := scenario(s)
	if err == nil {
		err = s.err
	}
	if s.trace != nil {
		s.dump()
		t.Logf("seed %d trace:\n%s", seed, s.trace)
	}
	if err != nil {
		t.Fatalf("seed %d: %v\nreplay: go test -run '^%s$' -sim.seed %d ./internal/cluster", seed, err, t.Name(), seed)
	}
}

var abc = []string{"a", "b", "c"}

// --- scenarios over the seed set ------------------------------------------

// TestSimSoak runs each seed's random schedule on three replicas (odd
// seeds) or five (even seeds): per-RPC delays, pairwise cuts and heals,
// replicas down and up, and a client proposing to whoever leads, for 1.5
// virtual seconds; then heals everything and requires a leader that
// commits and every store to converge. The invariants hold after every
// event throughout.
func TestSimSoak(t *testing.T) {
	t.Parallel()
	for _, seed := range simSeedList() {
		ids := abc
		if seed%2 == 0 {
			ids = []string{"a", "b", "c", "d", "e"}
		}
		runSeed(t, seed, ids, nil, simSoak)
	}
}

func simSoak(s *sim) error {
	s.start()
	const faulty = 1500 * time.Millisecond
	end := s.now.Add(faulty)
	s.after(0, func() { s.fault(end) })
	s.after(0, func() { s.client(end, 0) })
	if err := s.runFor(faulty); err != nil {
		return err
	}
	for i, a := range s.ids {
		s.setDown(a, false)
		for _, b := range s.ids[i+1:] {
			s.heal(a, b)
		}
	}
	lead, err := s.settle()
	if err != nil {
		return err
	}
	if err := s.record(lead, OpDeploy, "final", `{}`); err != nil {
		return fmt.Errorf("healed leader %s: %v", lead.self, err)
	}
	return s.runUntil(5*time.Second, "convergence after the heal", func() bool { return s.converged(lead) })
}

// fault injects one random fault, then schedules the next, until end.
func (s *sim) fault(end time.Time) {
	if !s.now.Before(end) {
		return
	}
	a, b := s.ids[s.rng.Intn(len(s.ids))], s.ids[s.rng.Intn(len(s.ids))]
	switch s.rng.Intn(4) {
	case 0:
		if a != b {
			s.partition(a, b)
		}
	case 1:
		if a != b {
			s.heal(a, b)
		}
	case 2:
		s.setDown(a, true)
	case 3:
		s.setDown(a, false)
	}
	s.after(time.Duration(20+s.rng.Intn(180))*time.Millisecond, func() { s.fault(end) })
}

// client proposes an op to the leaseholder, if any, then schedules the
// next proposal, until end.
func (s *sim) client(end time.Time, n int) {
	if !s.now.Before(end) {
		return
	}
	if lead := s.leader(); lead != nil {
		s.propose(lead, OpUpdate, fmt.Sprint("g", s.rng.Intn(8)), fmt.Sprintf(`{"n":%d}`, n))
	}
	s.after(time.Duration(5+s.rng.Intn(45))*time.Millisecond, func() { s.client(end, n+1) })
}

// A follower cut from a healthy leader that keeps its quorum must not
// depose it: the follower's pre-vote fails against the other follower's
// view of the lease, so no term rises and the leader's appends stay
// current. (Regression: a voter adopted the candidate's higher term before
// its lease guard refused the vote, then refused the leader's appends as
// stale-term; the leader lost its lease in 34 of 40 such runs.)
func TestOneLinkCutKeepsLeader(t *testing.T) {
	forSeeds(t, abc, nil, func(s *sim) error {
		s.start()
		lead, err := s.settle()
		if err != nil {
			return err
		}
		term := lead.Term()
		cut := s.followers(lead)[s.seed%2]
		s.partition(lead.self, cut.self)
		s.watch = func() error {
			if !lead.IsLeader() {
				return fmt.Errorf("leader %s lost its lease with %s cut", lead.self, cut.self)
			}
			return nil
		}
		if err := s.runFor(400 * time.Millisecond); err != nil {
			return err
		}
		s.heal(lead.self, cut.self)
		if err := s.runFor(simLease); err != nil {
			return err
		}
		for _, c := range s.nodes {
			if got := c.Term(); got != term {
				return fmt.Errorf("%s is at term %d after cutting %s from %s, want %d", c.self, got, lead.self, cut.self, term)
			}
		}
		return nil
	})
}

// No two replicas hold a lease at once. The leader loses one follower,
// then three leases later the other; the two followers elect a successor.
// The invariants check every replica's lease after every event.
// (Regression: the vote guard also took the failure detector's verdict,
// so a voter granted before the lease it had acknowledged could lapse,
// and the old and the new leader both held a lease.)
func TestNoTwoLeaseHolders(t *testing.T) {
	forSeeds(t, abc, nil, func(s *sim) error {
		s.start()
		lead, err := s.settle()
		if err != nil {
			return err
		}
		f := s.followers(lead)
		s.partition(lead.self, f[0].self)
		if err := s.runFor(3 * simLease); err != nil {
			return err
		}
		s.partition(lead.self, f[1].self)
		if err := s.runUntil(3*time.Second, "successor", func() bool { return f[0].IsLeader() || f[1].IsLeader() }); err != nil {
			return err
		}
		return s.runFor(simLease)
	})
}

// One follower whose appends stall for three leases costs the leader
// nothing: the other follower's acknowledgements renew the lease as they
// land, and the write commits on them. (Regression: a round waited for the
// slowest follower and then renewed the lease from its start, already in
// the past, so the leader stepped down at its next tick.)
func TestStalledFollowerKeepsLeaderLease(t *testing.T) {
	forSeeds(t, abc, nil, func(s *sim) error {
		s.start()
		lead, err := s.settle()
		if err != nil {
			return err
		}
		slow := s.followers(lead)[s.seed%2]
		s.stalls[link{lead.self, slow.self}] = stall{d: 3 * simLease}
		s.watch = func() error {
			if !lead.IsLeader() {
				return fmt.Errorf("leader %s lost its lease with %s stalled", lead.self, slow.self)
			}
			return nil
		}
		if err := s.record(lead, OpDeploy, "g1", `{}`); err != nil {
			return fmt.Errorf("record with %s stalled: %v", slow.self, err)
		}
		return s.runFor(5 * simLease)
	})
}

// A vote the lease guard refuses changes nothing, even when the
// candidate's pre-vote passed: the voter b granted it after voting for a
// new leader a and before a's first append reached it, then heard that
// append while the real vote was in flight. b must refuse the vote at its
// own term, and a keep leading. The candidate c, cut from a, is a term
// ahead from an election whose vote never landed. (Planted: a real vote
// that adopts the candidate's term ahead of the lease guard leaves b a
// term ahead, and a's next append deposes a.)
func TestLateVoteAdoptsNoTerm(t *testing.T) {
	forSeeds(t, abc, func(_ string, o *Options) {
		o.HeartbeatInterval = time.Hour // every round below is the test's
	}, func(s *sim) error {
		s.start()
		a, b, c := s.nodes["a"], s.nodes["b"], s.nodes["c"]
		s.partition("a", "c")
		// stallNext holds from's next call to b by d: the call that
		// follows b's grant of its vote (pre or real).
		stallNext := func(from string, pre bool, d time.Duration) {
			s.onVote = func(l link, req VoteRequest, reply VoteReply) {
				if l == (link{from, "b"}) && req.Pre == pre && reply.Granted {
					s.stalls[l] = stall{d: d, once: true}
				}
			}
		}
		stand := func(r *Cluster, pre bool, d time.Duration, what string, cond func() bool) error {
			stallNext(r.self, pre, d)
			r.mu.Lock()
			r.standLocked()
			r.unlock()
			return s.runUntil(simLease, what, cond)
		}
		// c's pre-vote for term 1 passes; its vote reaches b only after
		// the test.
		if err := stand(c, true, time.Hour, "c's candidacy", func() bool { return c.Term() == 1 }); err != nil {
			return err
		}
		// a wins term 1 on b's vote; its first append to b is held 10 ms.
		if err := stand(a, false, 10*time.Millisecond, "a's election", func() bool {
			a.mu.Lock()
			defer a.mu.Unlock()
			return a.role == roleLeader
		}); err != nil {
			return err
		}
		// b, with no leader heard, grants c's pre-vote for term 2; c's
		// vote lands 20 ms later, after a's append.
		if err := stand(c, true, 20*time.Millisecond, "c's second candidacy", func() bool { return c.Term() == 2 }); err != nil {
			return err
		}
		if err := s.runFor(simLease / 4); err != nil {
			return err
		}
		if !a.IsLeader() || b.Term() != 1 {
			return fmt.Errorf("after c's late vote: a leads %v, b is at term %d, want true and 1", a.IsLeader(), b.Term())
		}
		a.mu.Lock()
		a.broadcastLocked()
		a.unlock()
		if err := s.runFor(simLease / 4); err != nil {
			return err
		}
		if !a.IsLeader() || a.Term() != 1 {
			return fmt.Errorf("after a's next round: a leads %v at term %d, want true and 1", a.IsLeader(), a.Term())
		}
		return nil
	})
}

// An append that misses its round still lands later. Until it has, the
// leader sends that follower nothing more, so no newer append can overtake
// it: a late snapshot restored over ops the follower already acknowledged
// would leave it behind the ack the leader counts toward commit. Once it
// lands, the follower, behind the log tail, gets the rest at once.
func TestStraggledAppendIsNotOvertaken(t *testing.T) {
	forSeeds(t, abc, func(_ string, o *Options) {
		o.HeartbeatInterval = time.Hour // every round below is the test's
	}, func(s *sim) error {
		s.start()
		lead, c := s.nodes["a"], s.nodes["c"]
		s.stalls[link{"a", "c"}] = stall{d: 3 * simLease / 2, once: true} // the term's first append to c: its snapshot
		lead.mu.Lock()
		lead.standLocked()
		lead.unlock()
		if err := s.runUntil(simLease, "a's election", lead.IsLeader); err != nil {
			return err
		}
		for i := 0; i < 3; i++ {
			if err := s.record(lead, OpDeploy, fmt.Sprint("g", i), `{}`); err != nil {
				return fmt.Errorf("record %d: %v", i, err)
			}
		}
		if err := s.runFor(2 * simLease); err != nil { // the stalled snapshot lands
			return err
		}
		if !s.converged(lead) {
			return fmt.Errorf("c holds\n%s\nthe leader holds\n%s", c.Store().Serialize(), lead.Store().Serialize())
		}
		return nil
	})
}

// A follower cut from the leader before it adopted the term's baseline
// costs the leader one snapshot for the whole cut, not one per heartbeat:
// after a failed append it gets empty appends until it answers, then its
// snapshot. (Regression: every heartbeat deep-copied the whole intent
// store for it, to fail on the cut link.)
func TestCutFollowerCostsOneSnapshot(t *testing.T) {
	forSeeds(t, abc, nil, func(s *sim) error {
		s.partition("a", "c")
		lead, err := s.elect("a", 3)
		if err != nil {
			return err
		}
		if err := s.runFor(50 * simHeartbeat); err != nil {
			return err
		}
		if n := s.snapshots[link{"a", "c"}]; n > 1 {
			return fmt.Errorf("%d snapshots sent to c over 50 heartbeats of a cut, want at most 1", n)
		}
		s.heal("a", "c")
		return s.synced(lead, "c")
	})
}

// A follower whose answer to its snapshot is lost still ends synced, on
// the empty append that follows it, and byte-equal: no second snapshot is
// sent.
func TestLostSnapshotReplySyncs(t *testing.T) {
	forSeeds(t, abc, nil, func(s *sim) error {
		s.lose[link{"a", "c"}] = true
		lead, err := s.elect("a", 3)
		if err != nil {
			return err
		}
		if err := s.synced(lead, "c"); err != nil {
			return err
		}
		if n := s.snapshots[link{"a", "c"}]; n != 1 {
			return fmt.Errorf("%d snapshots sent to c, want 1", n)
		}
		return nil
	})
}

// elect starts every replica, has id stand for election at once, waits for
// it to lead and records n ops on it.
func (s *sim) elect(id string, n int) (*Cluster, error) {
	s.start()
	lead := s.nodes[id]
	lead.mu.Lock()
	lead.standLocked()
	lead.unlock()
	if err := s.runUntil(simLease, id+"'s election", lead.IsLeader); err != nil {
		return nil, err
	}
	for i := 0; i < n; i++ {
		if err := s.record(lead, OpDeploy, fmt.Sprint("g", i), `{}`); err != nil {
			return nil, fmt.Errorf("record %d: %v", i, err)
		}
	}
	return lead, nil
}

// synced runs until lead counts follower id synced and every store is
// lead's.
func (s *sim) synced(lead *Cluster, id string) error {
	return s.runUntil(5*time.Second, id+" synced to "+lead.self, func() bool {
		lead.mu.Lock()
		ok := lead.synced[id]
		lead.mu.Unlock()
		return ok && s.converged(lead)
	})
}

// The failover time of a leader kill, in virtual time: from the leader
// going down to a successor holding the lease, one reading per seed,
// exact and the same on every run. Its median and max over the tier-1
// seed set are held at their reading; a change to elections or leases
// is compared here.
func TestSimFailover(t *testing.T) {
	const wantMedian, wantMax time.Duration = 162903760, 241917488 // ns: 162.9 ms, 241.9 ms
	var times []time.Duration
	forSeeds(t, abc, nil, func(s *sim) error {
		s.start()
		lead, err := s.settle()
		if err != nil {
			return err
		}
		// Kill at a point of the heartbeat cycle the seed picks.
		if err := s.runFor(time.Duration(s.rng.Int63n(int64(simLease)))); err != nil {
			return err
		}
		if lead = s.leader(); lead == nil {
			return fmt.Errorf("no leader before the kill")
		}
		s.setDown(lead.self, true)
		t0 := s.now
		if err := s.runUntil(5*time.Second, "successor", func() bool {
			l := s.leader()
			return l != nil && l != lead
		}); err != nil {
			return err
		}
		times = append(times, s.now.Sub(t0))
		return nil
	})
	slices.Sort(times)
	median, worst := times[len(times)/2], times[len(times)-1]
	t.Logf("failover over %d seeds: median %v (%d ns), max %v (%d ns)", len(times), median, int64(median), worst, int64(worst))
	if *simSeed == 0 && *simSeeds == 500 && (median > wantMedian || worst > wantMax) {
		t.Errorf("failover median %v, max %v; held at %v, %v", median, worst, wantMedian, wantMax)
	}
}

// --- one-seed properties ---------------------------------------------------

// Two runs of one seed give byte-identical traces: every RPC, fault and
// client op, every journal event with its virtual timestamp, and each
// replica's store.
func TestSimReplaysSeed(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		var traces [2][]byte
		for i := range traces {
			s := newSim(seed, abc, nil)
			s.trace = new(bytes.Buffer)
			if err := simSoak(s); err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			s.dump()
			traces[i] = s.trace.Bytes()
		}
		if !bytes.Equal(traces[0], traces[1]) {
			t.Fatalf("seed %d: two runs traced differently:\n%s\n---\n%s", seed, traces[0], traces[1])
		}
		if !bytes.Contains(traces[0], []byte("journal")) {
			t.Fatalf("seed %d: the trace holds no journal event:\n%s", seed, traces[0])
		}
	}
}
