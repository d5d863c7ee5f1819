// Package cluster makes the global orchestration tier highly available:
// several un-global replicas form a cluster with lease-based leader
// election (only the leader mutates placement and runs reconcile; a
// deposed leader fences itself on lease expiry; PreVote and leader
// stickiness keep one cut link from deposing a healthy leader) and a
// sequence-numbered replicated intent log (every desired-state mutation
// streams to followers with acknowledgement-based commit, snapshot +
// catch-up for joiners, and deterministic replay on promotion). The lease
// is the only input to leadership; node liveness is the leader's
// reconcile probe, outside this package. The package is dependency-free
// and transport-agnostic:
// tests and the chaos harness drive it over an in-process fabric with
// injectable partitions, production over HTTP on the /v1/cluster routes.
package cluster

import (
	"encoding/json"
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"
	"time"

	"repro/internal/telemetry"
)

// The journal event type recorded by the cluster layer (the exported
// constant lives in internal/telemetry next to the rest of the event
// vocabulary; this alias keeps call sites short).
const eventLeaderElected = telemetry.EventLeaderElected

// Errors surfaced to callers. ErrNotLeader is the fencing signal: the
// REST layer turns it into a 307 redirect to the leader, the orchestrator
// refuses mutations on it.
var (
	ErrNotLeader    = errors.New("cluster: not the leader")
	ErrNoQuorum     = errors.New("cluster: lost quorum before commit")
	errWrongCluster = errors.New("cluster: cluster-id mismatch")
)

// Options configures one replica.
type Options struct {
	// ID is this replica's unique name; ClusterID guards against
	// replicas from different clusters voting or replicating to each
	// other.
	ID        string
	ClusterID string
	// Peers is the static replica set (including self); quorum is a
	// majority of it. Addr is each peer's REST base URL, used for write
	// redirects.
	Peers []PeerSpec
	// Transport carries peer RPCs.
	Transport Transport

	// HeartbeatInterval is the leader replication period (default
	// 100ms); LeaseDuration the leader lease extended by each
	// quorum-acked round (default 1s). Election timeouts randomize in
	// [lease, 2·lease).
	HeartbeatInterval time.Duration
	LeaseDuration     time.Duration

	// LogDepth bounds the leader-side replication window (default
	// 1024); followers further behind catch up from a snapshot. The
	// intent store remembers as many removed records for ChangedSince.
	LogDepth int

	// CommitTimeout bounds how long Record waits for quorum
	// acknowledgement before reporting ErrNoQuorum (default
	// LeaseDuration).
	CommitTimeout time.Duration

	// OnPromote fires after this replica wins an election and earns its
	// first lease; the orchestrator glue replays the intent store.
	OnPromote func(term uint64)
	// OnDemote fires when leadership is lost (lease expiry or a newer
	// term observed).
	OnDemote func()

	// Journal receives leader-elected events; Logf receives debug
	// logging. Both optional.
	Journal *telemetry.Journal
	Logf    func(format string, args ...any)
}

func (o *Options) withDefaults() Options {
	out := *o
	if out.ClusterID == "" {
		out.ClusterID = "un-global"
	}
	if out.HeartbeatInterval <= 0 {
		out.HeartbeatInterval = 100 * time.Millisecond
	}
	if out.LeaseDuration <= 0 {
		out.LeaseDuration = time.Second
	}
	if out.LogDepth <= 0 {
		out.LogDepth = defaultLogDepth
	}
	if out.CommitTimeout <= 0 {
		out.CommitTimeout = out.LeaseDuration
	}
	return out
}

// Cluster is one replica's view of the HA control plane. It implements
// Peer (the RPC surface other replicas call) and telemetry.Collector.
type Cluster struct {
	opts  Options
	self  string
	peers []string // the replica set other than self, sorted
	clk   clock

	mu sync.Mutex

	role       role
	term       uint64
	votedTerm  uint64
	votedFor   string
	leader     string
	leaseUntil time.Time    // leader side: fencing lease
	leaderSeen time.Time    // follower side: last valid append heard
	electionAt time.Time    // next election chance; a new leader's deadline to earn its first lease
	poll       *VoteRequest // the canvass in progress, if any
	votes      int          // its grants so far, self included

	log       *Log
	store     *IntentStore
	roundAt   time.Time            // leader side: start of the newest append round
	acked     map[string]uint64    // leader side: follower ack points
	heard     map[string]time.Time // leader side: start of the newest round each follower acknowledged
	inflight  map[string]sent      // leader side: the append in flight to each follower, if any
	commitSeq uint64
	changed   chan struct{} // closed and cleared to wake commit waits (signalLocked)
	// synced marks followers that have adopted this leader's term
	// baseline (acknowledged a current-term append). Until then a
	// follower's store may end in a divergent suffix from a deposed
	// leader at sequence numbers this leader reuses, so only a full
	// snapshot — never incremental ops — is sent, and its
	// acknowledgements count toward neither commit nor the lease.
	synced map[string]bool
	// unreached marks followers whose last append failed (see sendLocked).
	unreached map[string]bool
	// syncedTerm is the follower-side mirror: the newest term whose
	// baseline (snapshot) this replica has adopted. Incremental ops from
	// any other term are refused so the leader reseeds us first.
	syncedTerm uint64

	electionsStarted telemetry.Counter
	electionsWon     telemetry.Counter
	heartbeatRounds  telemetry.Counter
	opsRecorded      telemetry.Counter
	opsShipped       telemetry.Counter

	promoted uint64 // a term whose promotion unlock owes
	demoted  bool   // whether unlock owes OnDemote
	started  bool
}

// New builds a replica. Call Start to join the cluster.
func New(opts Options) (*Cluster, error) {
	o := opts.withDefaults()
	if o.ID == "" {
		return nil, errors.New("cluster: Options.ID is required")
	}
	if o.Transport == nil {
		return nil, errors.New("cluster: Options.Transport is required")
	}
	c := &Cluster{
		opts:      o,
		self:      o.ID,
		clk:       wallClock{},
		log:       NewLog(o.LogDepth),
		store:     newIntentStore(o.LogDepth),
		acked:     make(map[string]uint64),
		heard:     make(map[string]time.Time),
		inflight:  make(map[string]sent),
		synced:    make(map[string]bool),
		unreached: make(map[string]bool),
	}
	if !slices.ContainsFunc(o.Peers, func(p PeerSpec) bool { return p.ID == o.ID }) {
		c.opts.Peers = append(c.opts.Peers, PeerSpec{ID: o.ID})
	}
	for _, p := range c.opts.Peers {
		if p.ID != c.self {
			c.peers = append(c.peers, p.ID)
		}
	}
	sort.Strings(c.peers)
	return c, nil
}

// Start arms the heartbeat tick (see tick). The first election chance
// comes after a randomized timeout; a single-replica cluster (quorum 1)
// elects itself on the first tick after it.
func (c *Cluster) Start() {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.started {
		return
	}
	c.started = true
	// Stagger the first election chance so co-started replicas don't
	// split the vote forever; the randomized range keeps one ahead.
	c.electionAt = c.clk.Now().Add(time.Duration(float64(c.electionTimeout()) * 0.25))
	c.clk.AfterFunc(c.opts.HeartbeatInterval, c.tick)
}

// Close stops the replica: its tick stops re-arming, a canvass in
// progress is dropped and commit waits return. A leader simply
// disappears; the rest of the cluster elects a successor once its lease
// has lapsed.
func (c *Cluster) Close() {
	c.mu.Lock()
	c.started = false
	c.poll = nil
	c.signalLocked()
	c.mu.Unlock()
}

// quorum is a majority of the static replica set.
func (c *Cluster) quorum() int { return len(c.opts.Peers)/2 + 1 }

// signalLocked wakes every commit wait to check its seq again.
func (c *Cluster) signalLocked() {
	if c.changed != nil {
		close(c.changed)
		c.changed = nil
	}
}

// unlock releases c.mu, then runs the callbacks the locked section owed:
// OnDemote once this replica stopped leading, and the promotion (journal,
// OnPromote) once it earned its term's first lease.
func (c *Cluster) unlock() {
	term, demoted := c.promoted, c.demoted
	c.promoted, c.demoted = 0, false
	c.mu.Unlock()
	if demoted && c.opts.OnDemote != nil {
		c.opts.OnDemote()
	}
	if term != 0 {
		c.journalf(eventLeaderElected, c.self, "", "replica %s elected leader in term %d", c.self, term)
		c.logf("cluster %s: elected leader in term %d", c.self, term)
		if c.opts.OnPromote != nil {
			c.opts.OnPromote(term)
		}
	}
}

// IsLeader reports whether this replica holds a currently valid leader
// lease. The time check is the fence: a partitioned ex-leader stops
// passing it at most LeaseDuration after its last quorum contact, before
// the rest of the cluster can elect a successor.
func (c *Cluster) IsLeader() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.leasedLocked()
}

// Leader returns the current leader's id and REST address ("" when
// unknown or mid-election).
func (c *Cluster) Leader() (id, addr string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.leader == "" {
		return "", ""
	}
	for _, p := range c.opts.Peers {
		if p.ID == c.leader {
			return p.ID, p.Addr
		}
	}
	return c.leader, ""
}

// Term returns the current election term.
func (c *Cluster) Term() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.term
}

// Store exposes the replicated intent store (reads and promotion replay).
func (c *Cluster) Store() *IntentStore { return c.store }

// CommitSeq returns the acknowledged-by-quorum sequence number.
func (c *Cluster) CommitSeq() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.commitSeq
}

// Record appends one desired-state op to the replicated log, applies it
// locally and blocks until a quorum acknowledges it (or CommitTimeout
// lapses — ErrNoQuorum then; the op stays in the log and commits when
// quorum returns). Only a fenced-in leader may record.
func (c *Cluster) Record(kind OpKind, key string, data json.RawMessage) error {
	seq, err := c.Propose(kind, key, data)
	if err != nil {
		return err
	}
	return c.WaitCommit(seq)
}

// Propose is the non-blocking half of Record: it appends the op to the
// replication log and applies it locally, returning its sequence number
// for a later WaitCommit. Callers that hold their own locks use it so the
// quorum wait happens outside them. Only a fenced-in leader may propose.
//
// Propose takes ownership of data: the log and the intent store keep the
// same bytes, so the caller must not modify data afterwards.
func (c *Cluster) Propose(kind OpKind, key string, data json.RawMessage) (uint64, error) {
	c.mu.Lock()
	if !c.leasedLocked() {
		c.mu.Unlock()
		return 0, ErrNotLeader
	}
	op := c.log.Append(c.term, kind, key, data)
	c.store.Apply(op)
	c.mu.Unlock()
	c.opsRecorded.Inc()
	return op.Seq, nil
}

// WaitCommit blocks until the quorum commit point reaches seq, this
// replica loses leadership or is closed (ErrNotLeader — the op may or may
// not survive on the successor), or CommitTimeout lapses (ErrNoQuorum —
// the op stays in the log and commits when quorum returns; the deadline is
// checked at each tick). It starts an append round at once, and only
// while seq is uncommitted: waiting on ops staged together costs the first
// wait one round and the rest none. A committed op is also waited for
// until it is on its way to every follower keeping up: an append in
// flight that stops short of seq is waited for until its reply ships the
// rest, unless its round is half a lease old.
func (c *Cluster) WaitCommit(seq uint64) error {
	c.mu.Lock()
	start := c.clk.Now()
	if c.commitSeq < seq {
		c.broadcastLocked()
	}
	for {
		if done, err := c.waitDoneLocked(seq, start); done {
			c.unlock()
			return err
		}
		if c.changed == nil {
			c.changed = make(chan struct{})
		}
		changed := c.changed
		c.unlock()
		<-changed
		c.mu.Lock()
	}
}

// waitDoneLocked reports whether a commit wait for seq that started at
// start is over, and its result.
func (c *Cluster) waitDoneLocked(seq uint64, start time.Time) (bool, error) {
	now := c.clk.Now()
	switch {
	case c.commitSeq >= seq:
		for _, s := range c.inflight {
			if s.upTo < seq && now.Sub(s.at) < c.opts.LeaseDuration/2 {
				return false, nil
			}
		}
		return true, nil
	case c.role != roleLeader || !c.started:
		return true, ErrNotLeader
	case now.Sub(start) > c.opts.CommitTimeout:
		return true, ErrNoQuorum
	}
	return false, nil
}

// Status is the /v1/cluster document: who leads, what term, and how far
// replication has progressed.
type Status struct {
	ID         string `json:"id"`
	ClusterID  string `json:"cluster-id"`
	Leader     string `json:"leader,omitempty"`
	LeaderAddr string `json:"leader-addr,omitempty"`
	IsLeader   bool   `json:"is-leader"`
	Term       uint64 `json:"term"`
	CommitSeq  uint64 `json:"commit-seq"`
	AppliedSeq uint64 `json:"applied-seq"`
	// ReplicationLag is, on the leader, the distance between the log
	// tail and the slowest follower's acknowledgement; on a follower,
	// the distance to the leader's advertised commit point.
	ReplicationLag uint64 `json:"replication-lag"`
}

// ClusterStatus snapshots the replica's view for the REST surface.
func (c *Cluster) ClusterStatus() Status {
	leaderID, leaderAddr := c.Leader()
	c.mu.Lock()
	defer c.mu.Unlock()
	st := Status{
		ID:         c.self,
		ClusterID:  c.opts.ClusterID,
		Leader:     leaderID,
		LeaderAddr: leaderAddr,
		IsLeader:   c.leasedLocked(),
		Term:       c.term,
		CommitSeq:  c.commitSeq,
		AppliedSeq: c.store.LastApplied(),
	}
	st.ReplicationLag = c.replicationLagLocked()
	return st
}

// replicationLagLocked skips, on the leader, a follower that has answered
// no append round for one lease: its lag is unbounded, not informative.
func (c *Cluster) replicationLagLocked() uint64 {
	if c.role == roleLeader {
		tail := c.log.LastSeq()
		now := c.clk.Now()
		var lag uint64
		for _, id := range c.peers {
			if now.Sub(c.heard[id]) >= c.opts.LeaseDuration {
				continue
			}
			if a := c.acked[id]; tail > a && tail-a > lag {
				lag = tail - a
			}
		}
		return lag
	}
	if applied := c.store.LastApplied(); c.commitSeq > applied {
		return c.commitSeq - applied
	}
	return 0
}

// ReplicationLag is the live lag figure (see Status.ReplicationLag).
func (c *Cluster) ReplicationLag() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.replicationLagLocked()
}

func (c *Cluster) journalf(typ, node, graph, detail string, args ...any) {
	if c.opts.Journal != nil {
		c.opts.Journal.Record(telemetry.Event{Time: c.clk.Now(), Type: typ, Node: node, Graph: graph, Detail: fmt.Sprintf(detail, args...)})
	}
}

func (c *Cluster) logf(format string, args ...any) {
	if c.opts.Logf != nil {
		c.opts.Logf(format, args...)
	}
}
