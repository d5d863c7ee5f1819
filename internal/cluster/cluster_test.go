package cluster

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"maps"
	"net/http/httptest"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func waitFor(t *testing.T, timeout time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// --- IntentStore / Log unit tests -----------------------------------------

func op(seq uint64, kind OpKind, key, data string) Op {
	return Op{Seq: seq, Term: 1, Kind: kind, Key: key, Data: json.RawMessage(data)}
}

func TestIntentStoreIdempotentBySeq(t *testing.T) {
	s := NewIntentStore()
	s.Apply(op(1, OpDeploy, "g1", `{"v":1}`))
	s.Apply(op(2, OpUpdate, "g1", `{"v":2}`))
	// Duplicate delivery of an old op must not regress the record.
	s.Apply(op(1, OpDeploy, "g1", `{"v":1}`))
	s.Apply(op(2, OpUpdate, "g1", `{"v":2}`))
	if got := string(s.Get("graphs", "g1")); got != `{"v":2}` {
		t.Fatalf("after duplicates: got %s, want {\"v\":2}", got)
	}
	if s.LastApplied() != 2 {
		t.Fatalf("lastApplied = %d, want 2", s.LastApplied())
	}
}

// TestIntentStoreChangedSince names each record the ops after a sequence
// wrote or removed, once, parked ops included once they fold; and refuses a
// reader older than the tombstones it kept, or one that saw the store
// before a snapshot replaced it.
func TestIntentStoreChangedSince(t *testing.T) {
	s := newIntentStore(4)
	s.Apply(op(1, OpNodeAdd, "n1", `{}`))
	s.Apply(op(3, OpUndeploy, "g1", ""))
	s.Apply(op(2, OpDeploy, "g1", `{}`))
	s.Apply(op(4, OpLinkAdd, "l1", `{}`))
	changes, through, ok := s.ChangedSince(0)
	want := []Change{{"graphs", "g1"}, {"links", "l1"}, {"nodes", "n1"}}
	if !ok || through != 4 || !slices.Equal(changes, want) {
		t.Fatalf("ChangedSince(0) = %v, %d, %v; want %v, 4, true", changes, through, ok, want)
	}
	if changes, _, ok := s.ChangedSince(3); !ok || !slices.Equal(changes, want[1:2]) {
		t.Fatalf("ChangedSince(3) = %v, %v; want %v", changes, ok, want[1:2])
	}
	if changes, through, ok := s.ChangedSince(4); !ok || through != 4 || len(changes) != 0 {
		t.Fatalf("ChangedSince(current) = %v, %d, %v; want nothing to re-read", changes, through, ok)
	}
	// g1 is one tombstone; four more removed records make five, over the
	// store's four.
	for seq := uint64(5); seq <= 12; seq += 2 {
		key := fmt.Sprint("x", seq)
		s.Apply(op(seq, OpLinkAdd, key, `{}`))
		s.Apply(op(seq+1, OpLinkRemove, key, ""))
	}
	if _, _, ok := s.ChangedSince(4); ok {
		t.Error("ChangedSince served a reader older than the tombstones the store dropped")
	}
	s.Apply(op(13, OpNodeRemove, "n1", ""))
	if changes, _, ok := s.ChangedSince(12); !ok || !slices.Equal(changes, want[2:]) {
		t.Errorf("ChangedSince(12) = %v, %v; want %v", changes, ok, want[2:])
	}
	s.Restore(s.Snapshot())
	s.Apply(op(14, OpUndeploy, "g2", ""))
	if _, _, ok := s.ChangedSince(13); ok {
		t.Error("ChangedSince served a reader that saw the store before a snapshot replaced it")
	}
	if _, through, ok := s.ChangedSince(14); !ok || through != 14 {
		t.Errorf("ChangedSince(14) after the restore = %d, %v", through, ok)
	}
}

func TestIntentStoreReorderedDelivery(t *testing.T) {
	s := NewIntentStore()
	// Deliver 3 and 2 before 1: both park until the gap fills, then the
	// whole prefix drains in order.
	s.Apply(op(3, OpUpdate, "g1", `{"v":3}`))
	s.Apply(op(2, OpUpdate, "g1", `{"v":2}`))
	if s.LastApplied() != 0 {
		t.Fatalf("applied out-of-order ops early: lastApplied = %d", s.LastApplied())
	}
	s.Apply(op(1, OpDeploy, "g1", `{"v":1}`))
	if s.LastApplied() != 3 {
		t.Fatalf("lastApplied = %d, want 3", s.LastApplied())
	}
	if got := string(s.Get("graphs", "g1")); got != `{"v":3}` {
		t.Fatalf("got %s, want {\"v\":3}", got)
	}
}

func TestIntentStoreRemoveAndCategories(t *testing.T) {
	s := NewIntentStore()
	s.Apply(op(1, OpNodeAdd, "n1", `{"url":"http://n1"}`))
	s.Apply(op(2, OpNodeAdd, "n2", `{"url":"http://n2"}`))
	s.Apply(op(3, OpLinkAdd, "n1|eth1|n2|eth1", `{"a-node":"n1"}`))
	s.Apply(op(4, OpNodeRemove, "n2", ""))
	if got := s.Keys("nodes"); len(got) != 1 || got[0] != "n1" {
		t.Fatalf("nodes = %v, want [n1]", got)
	}
	if got := s.Keys("links"); len(got) != 1 {
		t.Fatalf("links = %v, want one", got)
	}
}

func TestIntentStoreSnapshotRestoreSerialize(t *testing.T) {
	a := NewIntentStore()
	a.Apply(op(1, OpDeploy, "g1", `{"v":1}`))
	a.Apply(op(2, OpNodeAdd, "n1", `{"url":"u"}`))
	b := NewIntentStore()
	b.Restore(a.Snapshot())
	if !bytes.Equal(a.Serialize(), b.Serialize()) {
		t.Fatalf("restored store serializes differently:\n%s\n%s", a.Serialize(), b.Serialize())
	}
	// A parked op must NOT survive Restore: a snapshot is a new baseline,
	// and ops parked before it may belong to a divergent (uncommitted)
	// suffix from a deposed leader. The leader re-delivers anything the
	// snapshot is missing.
	c := NewIntentStore()
	c.Apply(op(3, OpUpdate, "g1", `{"v":3}`))
	c.Restore(a.Snapshot())
	if c.LastApplied() != 2 {
		t.Fatalf("restore did not reset to the snapshot point: lastApplied = %d", c.LastApplied())
	}
	if got := string(c.Get("graphs", "g1")); got != `{"v":1}` {
		t.Fatalf("parked op folded across a restore: got %s, want {\"v\":1}", got)
	}
	// Re-delivery from the snapshot's baseline drains normally.
	c.Apply(op(3, OpUpdate, "g1", `{"v":30}`))
	if c.LastApplied() != 3 {
		t.Fatalf("re-delivered op did not apply: lastApplied = %d", c.LastApplied())
	}
}

func TestLogWindowAndSnapshotFallback(t *testing.T) {
	l := NewLog(4)
	for i := 0; i < 8; i++ {
		l.Append(1, OpDeploy, fmt.Sprintf("g%d", i), json.RawMessage(`{}`))
	}
	if l.LastSeq() != 8 {
		t.Fatalf("lastSeq = %d, want 8", l.LastSeq())
	}
	if ops, ok := l.Since(6); !ok || len(ops) != 2 || ops[0].Seq != 7 {
		t.Fatalf("Since(6) = %v, %v", ops, ok)
	}
	if _, ok := l.Since(2); ok {
		t.Fatal("Since(2) should fall out of a depth-4 window")
	}
	if ops, ok := l.Since(8); !ok || len(ops) != 0 {
		t.Fatalf("Since(tail) = %v, %v, want empty ok", ops, ok)
	}
}

// --- cluster rig -----------------------------------------------------------

type rig struct {
	net      *LocalNetwork
	peers    []PeerSpec
	clusters map[string]*Cluster
}

func newRig(t *testing.T, ids []string, mutate func(id string, o *Options)) *rig {
	t.Helper()
	r := &rig{net: NewLocalNetwork(), clusters: make(map[string]*Cluster)}
	for _, id := range ids {
		r.peers = append(r.peers, PeerSpec{ID: id, Addr: "http://" + id})
	}
	for _, id := range ids {
		o := Options{
			ID:                id,
			ClusterID:         "test",
			Peers:             r.peers,
			Transport:         r.net.Transport(id),
			HeartbeatInterval: 10 * time.Millisecond,
			LeaseDuration:     120 * time.Millisecond,
			CommitTimeout:     time.Second,
		}
		if mutate != nil {
			mutate(id, &o)
		}
		c, err := New(o)
		if err != nil {
			t.Fatalf("New(%s): %v", id, err)
		}
		r.net.Register(id, c)
		r.clusters[id] = c
	}
	t.Cleanup(func() {
		for _, c := range r.clusters {
			c.Close()
		}
	})
	return r
}

func (r *rig) close() {
	for _, c := range r.clusters {
		c.Close()
	}
}

// settled waits for one leader that every replica follows, and returns it.
func (r *rig) settled(t *testing.T) *Cluster {
	t.Helper()
	var lead *Cluster
	waitFor(t, 3*time.Second, "all replicas following one leader", func() bool {
		lead = r.leader()
		if lead == nil {
			return false
		}
		for _, c := range r.clusters {
			if id, _ := c.Leader(); id != lead.self {
				return false
			}
		}
		return true
	})
	return lead
}

// followers lists the replicas other than lead, sorted by id.
func (r *rig) followers(lead *Cluster) []*Cluster {
	var out []*Cluster
	for _, id := range slices.Sorted(maps.Keys(r.clusters)) {
		if id != lead.self {
			out = append(out, r.clusters[id])
		}
	}
	return out
}

// holdsLease samples c.IsLeader every millisecond for d and fails the test
// at the first sample that finds the lease lost.
func holdsLease(t *testing.T, c *Cluster, d time.Duration) {
	t.Helper()
	start := time.Now()
	for time.Since(start) < d {
		if !c.IsLeader() {
			t.Fatalf("leader %s lost its lease %v into the fault", c.self, time.Since(start))
		}
		time.Sleep(time.Millisecond)
	}
}

func (r *rig) startAll() {
	for _, c := range r.clusters {
		c.Start()
	}
}

func (r *rig) leader() *Cluster {
	for _, c := range r.clusters {
		if c.IsLeader() {
			return c
		}
	}
	return nil
}

func (r *rig) leaders() []*Cluster {
	var out []*Cluster
	for _, c := range r.clusters {
		if c.IsLeader() {
			out = append(out, c)
		}
	}
	return out
}

// --- election tests --------------------------------------------------------

func TestSingleReplicaSelfElects(t *testing.T) {
	r := newRig(t, []string{"a"}, nil)
	r.startAll()
	waitFor(t, 2*time.Second, "self-election", func() bool { return r.clusters["a"].IsLeader() })
	if err := r.clusters["a"].Record(OpDeploy, "g1", json.RawMessage(`{}`)); err != nil {
		t.Fatalf("Record on single-replica leader: %v", err)
	}
	if r.clusters["a"].CommitSeq() != 1 {
		t.Fatalf("commit = %d, want 1 (quorum of one)", r.clusters["a"].CommitSeq())
	}
}

func TestThreeReplicasElectExactlyOneLeader(t *testing.T) {
	r := newRig(t, []string{"a", "b", "c"}, nil)
	r.startAll()
	waitFor(t, 3*time.Second, "a leader", func() bool { return r.leader() != nil })
	// Leadership must be unique and every replica must agree on it.
	leader := r.leader()
	waitFor(t, 2*time.Second, "all replicas following one leader", func() bool {
		if len(r.leaders()) != 1 {
			return false
		}
		for _, c := range r.clusters {
			if id, _ := c.Leader(); id != leader.self {
				return false
			}
		}
		return true
	})
}

func TestLeaderKillPromotesFollowerWithIntentIntact(t *testing.T) {
	r := newRig(t, []string{"a", "b", "c"}, nil)
	r.startAll()
	waitFor(t, 3*time.Second, "initial leader", func() bool { return r.leader() != nil })
	old := r.leader()
	for i := 0; i < 5; i++ {
		if err := old.Record(OpDeploy, fmt.Sprintf("g%d", i), json.RawMessage(fmt.Sprintf(`{"i":%d}`, i))); err != nil {
			t.Fatalf("Record: %v", err)
		}
	}
	waitFor(t, 2*time.Second, "replication drained", func() bool { return old.ReplicationLag() == 0 })
	want := old.Store().Serialize()

	r.net.SetDown(old.self, true)
	start := time.Now()
	var next *Cluster
	waitFor(t, 3*time.Second, "failover", func() bool {
		for _, c := range r.clusters {
			if c != old && c.IsLeader() {
				next = c
				return true
			}
		}
		return false
	})
	t.Logf("failover in %v", time.Since(start))
	// Promotion replay: the new leader's intent store must be
	// byte-identical to the old leader's.
	if got := next.Store().Serialize(); !bytes.Equal(got, want) {
		t.Fatalf("intent store diverged across failover:\nold: %s\nnew: %s", want, got)
	}
	// The dead ex-leader is fenced within its lease.
	waitFor(t, 2*time.Second, "ex-leader fenced", func() bool { return !old.IsLeader() })
	if err := old.Record(OpDeploy, "gX", json.RawMessage(`{}`)); !errors.Is(err, ErrNotLeader) {
		t.Fatalf("fenced ex-leader Record = %v, want ErrNotLeader", err)
	}
}

func TestPartitionedLeaderFencesAndRejoins(t *testing.T) {
	r := newRig(t, []string{"a", "b", "c"}, nil)
	r.startAll()
	waitFor(t, 3*time.Second, "initial leader", func() bool { return r.leader() != nil })
	old := r.leader()
	if err := old.Record(OpDeploy, "g1", json.RawMessage(`{"v":1}`)); err != nil {
		t.Fatalf("Record: %v", err)
	}

	// Cut the leader off from both followers: the majority side elects a
	// successor, the minority-side ex-leader loses its lease and fences.
	r.net.Isolate(old.self)
	var next *Cluster
	waitFor(t, 3*time.Second, "majority side elects successor", func() bool {
		for _, c := range r.clusters {
			if c != old && c.IsLeader() {
				next = c
				return true
			}
		}
		return false
	})
	waitFor(t, 2*time.Second, "ex-leader lease expired", func() bool { return !old.IsLeader() })
	if err := old.Record(OpUpdate, "g1", json.RawMessage(`{"v":2}`)); !errors.Is(err, ErrNotLeader) {
		t.Fatalf("partitioned ex-leader accepted a write: %v", err)
	}

	// Writes proceed on the majority side while the partition holds.
	if err := next.Record(OpUpdate, "g1", json.RawMessage(`{"v":3}`)); err != nil {
		t.Fatalf("majority leader Record: %v", err)
	}

	// Heal: the ex-leader rejoins as a follower and converges on the
	// majority's intent, including ops it never saw.
	r.net.Rejoin(old.self)
	waitFor(t, 3*time.Second, "ex-leader converges as follower", func() bool {
		return !old.IsLeader() && bytes.Equal(old.Store().Serialize(), next.Store().Serialize())
	})
	if got := string(old.Store().Get("graphs", "g1")); got != `{"v":3}` {
		t.Fatalf("healed follower g1 = %s, want {\"v\":3}", got)
	}
}

// A deposed leader holding a divergent uncommitted op at a sequence the
// new leader reuses must abandon its suffix and converge on the committed
// history. (Regression: seq-only dedup discarded the new leader's op as a
// duplicate, and the stale ack silently counted toward quorum commit.)
func TestDivergentExLeaderResyncsAfterFailover(t *testing.T) {
	r := newRig(t, []string{"a", "b", "c"}, nil)
	r.startAll()
	waitFor(t, 3*time.Second, "initial leader", func() bool { return r.leader() != nil })
	old := r.leader()
	if err := old.Record(OpDeploy, "g1", json.RawMessage(`{"v":1}`)); err != nil {
		t.Fatalf("Record: %v", err)
	}
	waitFor(t, 2*time.Second, "replication drained", func() bool { return old.ReplicationLag() == 0 })

	// Cut the leader off and immediately stage an op while its lease is
	// still warm: it applies locally but can never reach quorum — the
	// divergent suffix of a deposed leader.
	r.net.Isolate(old.self)
	if _, err := old.Propose(OpUpdate, "g1", json.RawMessage(`{"v":"divergent"}`)); err != nil {
		t.Fatalf("Propose on still-leased leader: %v", err)
	}
	if got := string(old.Store().Get("graphs", "g1")); got != `{"v":"divergent"}` {
		t.Fatalf("divergent op not applied locally: %s", got)
	}

	var next *Cluster
	waitFor(t, 3*time.Second, "majority elects successor", func() bool {
		for _, c := range r.clusters {
			if c != old && c.IsLeader() {
				next = c
				return true
			}
		}
		return false
	})
	// The successor commits a different op occupying the same sequence.
	if err := next.Record(OpUpdate, "g1", json.RawMessage(`{"v":"committed"}`)); err != nil {
		t.Fatalf("successor Record: %v", err)
	}

	r.net.Rejoin(old.self)
	waitFor(t, 3*time.Second, "ex-leader abandons divergent suffix", func() bool {
		return !old.IsLeader() && bytes.Equal(old.Store().Serialize(), next.Store().Serialize())
	})
	if got := string(old.Store().Get("graphs", "g1")); got != `{"v":"committed"}` {
		t.Fatalf("divergent suffix survived failover: g1 = %s", got)
	}
}

// Voters must refuse candidates whose applied history is behind their own,
// ordered by (LastTerm, LastSeq) — seq length alone is not up-to-dateness.
func TestElectionRestrictionRefusesStaleHistory(t *testing.T) {
	r := newRig(t, []string{"a", "b"}, nil)
	a := r.clusters["a"]
	a.Store().Apply(Op{Seq: 1, Term: 2, Kind: OpDeploy, Key: "g1", Data: json.RawMessage(`{}`)})
	a.Store().Apply(Op{Seq: 2, Term: 2, Kind: OpUpdate, Key: "g1", Data: json.RawMessage(`{}`)})

	// A full term behind: refused even though its log is longer.
	reply, err := a.RequestVote(VoteRequest{ClusterID: "test", Candidate: "b", Term: 5, LastTerm: 1, LastSeq: 9})
	if err != nil {
		t.Fatal(err)
	}
	if reply.Granted {
		t.Fatal("granted vote to a candidate a full term behind")
	}
	// Same term, shorter history: refused.
	if reply, _ = a.RequestVote(VoteRequest{ClusterID: "test", Candidate: "b", Term: 6, LastTerm: 2, LastSeq: 1}); reply.Granted {
		t.Fatal("granted vote to a candidate with a shorter history")
	}
	// At least as up to date: granted.
	if reply, _ = a.RequestVote(VoteRequest{ClusterID: "test", Candidate: "b", Term: 7, LastTerm: 2, LastSeq: 2}); !reply.Granted {
		t.Fatal("refused vote to an up-to-date candidate")
	}
}

// --- replication tests -----------------------------------------------------

func TestFollowersConvergeOnRecordedIntent(t *testing.T) {
	r := newRig(t, []string{"a", "b", "c"}, nil)
	r.startAll()
	waitFor(t, 3*time.Second, "leader", func() bool { return r.leader() != nil })
	lead := r.leader()
	lead.Record(OpNodeAdd, "n1", json.RawMessage(`{"url":"http://n1"}`))
	lead.Record(OpDeploy, "g1", json.RawMessage(`{"graph":{"id":"g1"}}`))
	lead.Record(OpUpdate, "g1", json.RawMessage(`{"graph":{"id":"g1","rev":2}}`))
	want := lead.Store().Serialize()
	waitFor(t, 2*time.Second, "followers converge", func() bool {
		for _, c := range r.clusters {
			if !bytes.Equal(c.Store().Serialize(), want) {
				return false
			}
		}
		return true
	})
}

func TestJoinerMidStreamCatchesUpViaSnapshot(t *testing.T) {
	// Log window of 4 with 20 ops recorded before the third replica
	// starts: catch-up cannot come from the log, forcing the snapshot
	// path.
	r := newRig(t, []string{"a", "b", "c"}, func(id string, o *Options) {
		o.LogDepth = 4
	})
	r.clusters["a"].Start()
	r.clusters["b"].Start()
	waitFor(t, 3*time.Second, "leader among a,b", func() bool { return r.leader() != nil })
	lead := r.leader()
	for i := 0; i < 20; i++ {
		if err := lead.Record(OpDeploy, fmt.Sprintf("g%d", i), json.RawMessage(fmt.Sprintf(`{"i":%d}`, i))); err != nil {
			t.Fatalf("Record %d: %v", i, err)
		}
	}
	want := lead.Store().Serialize()

	// c joins mid-stream, far behind the window.
	r.clusters["c"].Start()
	waitFor(t, 3*time.Second, "joiner snapshot + catch-up", func() bool {
		return bytes.Equal(r.clusters["c"].Store().Serialize(), want)
	})
	// And keeps up incrementally afterwards.
	lead.Record(OpUndeploy, "g0", nil)
	want = lead.Store().Serialize()
	waitFor(t, 2*time.Second, "joiner follows the live stream", func() bool {
		return bytes.Equal(r.clusters["c"].Store().Serialize(), want)
	})
}

func TestRecordWithoutQuorumFailsAndLeaderFences(t *testing.T) {
	r := newRig(t, []string{"a", "b", "c"}, nil)
	r.startAll()
	waitFor(t, 3*time.Second, "leader", func() bool { return r.leader() != nil })
	lead := r.leader()
	// Kill both followers: the leader can neither commit nor renew.
	for id := range r.clusters {
		if id != lead.self {
			r.net.SetDown(id, true)
		}
	}
	err := lead.Record(OpDeploy, "g1", json.RawMessage(`{}`))
	if !errors.Is(err, ErrNoQuorum) && !errors.Is(err, ErrNotLeader) {
		t.Fatalf("Record without quorum = %v, want ErrNoQuorum or ErrNotLeader", err)
	}
	waitFor(t, 2*time.Second, "leader fenced without quorum", func() bool { return !lead.IsLeader() })
}

// ClearPending drops parked out-of-order ops (a leadership boundary may
// strand ops from the old leader's divergent suffix); re-delivery from the
// new leader fills the gap instead.
func TestIntentStoreClearPending(t *testing.T) {
	s := NewIntentStore()
	s.Apply(op(1, OpDeploy, "g1", `{"v":1}`))
	s.Apply(op(3, OpUpdate, "g1", `{"v":3}`)) // parks on the seq-2 gap
	s.ClearPending()
	s.Apply(op(2, OpUpdate, "g1", `{"v":2}`))
	if s.LastApplied() != 2 {
		t.Fatalf("cleared parked op still drained: lastApplied = %d", s.LastApplied())
	}
	if got := string(s.Get("graphs", "g1")); got != `{"v":2}` {
		t.Fatalf("g1 = %s, want {\"v\":2}", got)
	}
	s.Apply(op(3, OpUpdate, "g1", `{"v":33}`))
	if s.LastApplied() != 3 {
		t.Fatalf("re-delivered op did not apply: lastApplied = %d", s.LastApplied())
	}
}

// An intent op crosses to each follower once. A Record is one replication
// round carrying the op to both followers. Waiting on k staged ops in order
// sends all k in the first wait's round and nothing in the others, which
// find their op already committed. (Regression: Propose also woke the
// heartbeat loop, whose round read the same unacknowledged ops as the commit
// wait's and shipped them a second time, and every wait sent its own round.)
func TestIntentOpsCrossToEachFollowerOnce(t *testing.T) {
	// No heartbeat tick lands in the test, so every round is a commit
	// wait's. Elections also run off the tick: a stands for one directly.
	r := newRig(t, []string{"a", "b", "c"}, func(_ string, o *Options) {
		o.HeartbeatInterval = time.Hour
		o.LeaseDuration = time.Minute
	})
	r.startAll()
	lead := r.clusters["a"]
	lead.runElection()
	if !lead.IsLeader() {
		t.Fatal("a did not win its election")
	}

	const n = 20
	ops, rounds := lead.opsShipped.Value(), lead.heartbeatRounds.Value()
	for i := 0; i < n; i++ {
		if err := lead.Record(OpDeploy, fmt.Sprintf("g%d", i), json.RawMessage(fmt.Sprintf(`{"i":%d}`, i))); err != nil {
			t.Fatalf("Record %d: %v", i, err)
		}
	}
	if got := lead.opsShipped.Value() - ops; got != 2*n {
		t.Errorf("%d Records shipped %d ops to 2 followers, want %d", n, got, 2*n)
	}
	if got := lead.heartbeatRounds.Value() - rounds; got != n {
		t.Errorf("%d Records took %d rounds, want %d", n, got, n)
	}

	const k = 8
	seqs := make([]uint64, k)
	for i := range seqs {
		var err error
		if seqs[i], err = lead.Propose(OpUpdate, fmt.Sprintf("g%d", i), json.RawMessage(fmt.Sprintf(`{"v":%d}`, i))); err != nil {
			t.Fatalf("Propose %d: %v", i, err)
		}
	}
	ops, rounds = lead.opsShipped.Value(), lead.heartbeatRounds.Value()
	for _, seq := range seqs {
		if err := lead.WaitCommit(seq); err != nil {
			t.Fatalf("WaitCommit(%d): %v", seq, err)
		}
	}
	if got := lead.opsShipped.Value() - ops; got != 2*k {
		t.Errorf("a flush of %d staged ops shipped %d ops to 2 followers, want %d", k, got, 2*k)
	}
	if got := lead.heartbeatRounds.Value() - rounds; got != 1 {
		t.Errorf("a flush of %d staged ops took %d rounds, want 1", k, got)
	}
	want := lead.Store().Serialize()
	for _, id := range []string{"b", "c"} {
		if got := r.clusters[id].Store().Serialize(); !bytes.Equal(got, want) {
			t.Errorf("follower %s holds\n%s\nleader holds\n%s", id, got, want)
		}
	}
}

// Commit waits from several goroutines and the heartbeat tick run their
// rounds one at a time, each reading the ops past the previous round's
// acknowledgements: every op still crosses to each follower exactly once.
func TestConcurrentRecordsShipEachOpOnce(t *testing.T) {
	r := newRig(t, []string{"a", "b", "c"}, func(_ string, o *Options) {
		o.LeaseDuration = time.Second // a stable leader under -race
		o.CommitTimeout = 5 * time.Second
	})
	r.startAll()
	waitFor(t, 5*time.Second, "leader", func() bool { return r.leader() != nil })
	lead := r.leader()
	const writers, each = 4, 25
	ops := lead.opsShipped.Value()
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				if err := lead.Record(OpDeploy, fmt.Sprintf("g%d", w), json.RawMessage(fmt.Sprintf(`{"i":%d}`, i))); err != nil {
					t.Errorf("writer %d Record %d: %v", w, i, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if got := lead.opsShipped.Value() - ops; got != 2*writers*each {
		t.Errorf("%d concurrent Records shipped %d ops to 2 followers, want %d", writers*each, got, 2*writers*each)
	}
	want := lead.Store().Serialize()
	waitFor(t, 2*time.Second, "followers converge", func() bool {
		for _, c := range r.clusters {
			if !bytes.Equal(c.Store().Serialize(), want) {
				return false
			}
		}
		return true
	})
}

// --- lease tests -----------------------------------------------------------

// A follower cut from a healthy leader that keeps its quorum must not
// depose it: the follower's pre-vote fails against the other follower's
// view of the lease, so no term rises and the leader's appends stay
// current. (Regression: a voter adopted the candidate's higher term before
// its lease guard refused the vote, then refused the leader's appends as
// stale-term; the leader lost its lease in 34 of 40 such runs.)
func TestOneLinkCutKeepsLeader(t *testing.T) {
	for run := 0; run < 10; run++ {
		r := newRig(t, []string{"a", "b", "c"}, nil)
		r.startAll()
		lead := r.settled(t)
		term := lead.Term()
		cut := r.followers(lead)[run%2]
		r.net.Partition(lead.self, cut.self)
		holdsLease(t, lead, 400*time.Millisecond)
		r.net.Heal(lead.self, cut.self)
		for _, c := range r.clusters {
			if got := c.Term(); got != term {
				t.Fatalf("run %d: %s is at term %d after cutting %s from %s, want %d", run, c.self, got, lead.self, cut.self, term)
			}
		}
		r.close()
	}
}

// A follower that heard a valid Append within one lease refuses a vote and
// a pre-vote at a higher term, and adopts nothing from either; once the
// lease it observed has lapsed, it grants. A leader refuses while its own
// lease runs.
func TestVoterRefusesWhileLeaseLive(t *testing.T) {
	r := newRig(t, []string{"a", "b", "c"}, nil)
	b := r.clusters["b"]
	lease := b.opts.LeaseDuration
	if _, err := b.Append(AppendRequest{ClusterID: "test", Leader: "a", Term: 3}); err != nil {
		t.Fatal(err)
	}
	// Age what b heard instead of sleeping: half a lease later, then a
	// lapsed lease.
	age := func(d time.Duration) {
		b.mu.Lock()
		b.leaderSeen = time.Now().Add(-d)
		b.mu.Unlock()
	}
	state := func(c *Cluster) string {
		c.mu.Lock()
		defer c.mu.Unlock()
		return fmt.Sprintf("term %d, voted %q in term %d, leader %q, role %d", c.term, c.votedFor, c.votedTerm, c.leader, c.role)
	}
	age(lease / 2)
	want := state(b)
	for _, pre := range []bool{true, false} {
		reply, err := b.RequestVote(VoteRequest{ClusterID: "test", Candidate: "c", Term: 4, Pre: pre})
		if err != nil {
			t.Fatal(err)
		}
		if reply.Granted {
			t.Errorf("pre=%v: granted a vote half a lease after an Append", pre)
		}
		if got := state(b); got != want {
			t.Errorf("pre=%v: a refused request changed the voter: %s, want %s", pre, got, want)
		}
	}

	age(lease)
	reply, err := b.RequestVote(VoteRequest{ClusterID: "test", Candidate: "c", Term: 4, Pre: true})
	if err != nil || !reply.Granted {
		t.Fatalf("pre-vote after the lease lapsed = %+v, %v; want granted", reply, err)
	}
	if got := state(b); got != want {
		t.Errorf("a granted pre-vote changed the voter: %s, want %s", got, want)
	}
	if reply, _ = b.RequestVote(VoteRequest{ClusterID: "test", Candidate: "c", Term: 4}); !reply.Granted || reply.Term != 4 {
		t.Fatalf("vote after the lease lapsed = %+v; want granted at term 4", reply)
	}
	if b.Term() != 4 {
		t.Errorf("granted voter at term %d, want 4", b.Term())
	}

	a := r.clusters["a"]
	a.mu.Lock()
	a.role, a.term, a.leader, a.leaseUntil = roleLeader, 3, "a", time.Now().Add(lease)
	a.mu.Unlock()
	want = state(a)
	for _, pre := range []bool{true, false} {
		if reply, _ := a.RequestVote(VoteRequest{ClusterID: "test", Candidate: "c", Term: 5, Pre: pre}); reply.Granted {
			t.Errorf("pre=%v: a leader granted a vote within its lease", pre)
		}
	}
	if got := state(a); got != want || !a.IsLeader() {
		t.Errorf("a leased leader changed on a vote request: %s, want %s", got, want)
	}
}

// No two replicas hold a lease at once. The leader loses one follower,
// then three leases later the other; the two followers elect a successor.
// A sampler evaluates every replica's lease at one instant each
// millisecond, under each replica's lock. (Regression: the vote guard also
// took the failure detector's verdict, so a voter granted before the lease
// it had acknowledged could lapse, and the old and the new leader both
// held a lease.)
func TestNoTwoLeaseHolders(t *testing.T) {
	for run := 0; run < 10; run++ {
		r := newRig(t, []string{"a", "b", "c"}, nil)
		r.startAll()
		lead := r.settled(t)
		lease := lead.opts.LeaseDuration
		f := r.followers(lead)
		stop := make(chan struct{})
		overlap := make(chan string, 1)
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				case <-time.After(time.Millisecond):
				}
				now := time.Now()
				var holders []string
				for _, c := range r.clusters {
					c.mu.Lock()
					if c.role == roleLeader && now.Before(c.leaseUntil) {
						holders = append(holders, fmt.Sprintf("%s (term %d, %v left)", c.self, c.term, c.leaseUntil.Sub(now)))
					}
					c.mu.Unlock()
				}
				if len(holders) > 1 {
					overlap <- fmt.Sprint(holders)
					return
				}
			}
		}()
		r.net.Partition(lead.self, f[0].self)
		time.Sleep(3 * lease)
		r.net.Partition(lead.self, f[1].self)
		waitFor(t, 3*time.Second, "a successor", func() bool { return f[0].IsLeader() || f[1].IsLeader() })
		time.Sleep(lease)
		close(stop)
		wg.Wait()
		r.close()
		select {
		case holders := <-overlap:
			t.Fatalf("run %d: two lease holders at once: %s", run, holders)
		default:
		}
	}
}

// stallTransport delays Appends to one replica (named by to, once set) by
// stall before delivering them: a follower that accepts the call and does
// not answer in time. With once, only the next Append stalls.
type stallTransport struct {
	Transport
	to    *atomic.Value
	stall time.Duration
	once  bool
}

type stallPeer struct {
	Peer
	t  stallTransport
	id string
}

func (t stallTransport) Dial(id string) (Peer, error) {
	p, err := t.Transport.Dial(id)
	if err != nil {
		return p, err
	}
	return stallPeer{Peer: p, t: t, id: id}, nil
}

func (p stallPeer) Append(req AppendRequest) (AppendReply, error) {
	if p.t.once && p.t.to.CompareAndSwap(p.id, "") || !p.t.once && p.t.to.Load() == p.id {
		time.Sleep(p.t.stall)
	}
	return p.Peer.Append(req)
}

// One follower that stalls for three leases costs the leader nothing: its
// rounds stop waiting at half a lease and renew the lease on the other
// follower's acknowledgement. (Regression: a round waited for the slowest
// follower and then renewed the lease from its start, already in the past,
// so the leader stepped down at its next tick.)
func TestStalledFollowerKeepsLeaderLease(t *testing.T) {
	var stalled atomic.Value
	stalled.Store("")
	const lease = 120 * time.Millisecond
	r := newRig(t, []string{"a", "b", "c"}, func(_ string, o *Options) {
		o.Transport = stallTransport{Transport: o.Transport, to: &stalled, stall: 3 * lease}
	})
	r.startAll()
	lead := r.settled(t)
	stalled.Store(r.followers(lead)[0].self)
	recorded := make(chan error, 1)
	go func() { recorded <- lead.Record(OpDeploy, "g1", json.RawMessage(`{}`)) }()
	holdsLease(t, lead, 5*lease)
	if err := <-recorded; err != nil {
		t.Fatalf("Record with one follower stalled: %v", err)
	}
}

// An append that misses its round still lands later. Until it has, the
// leader sends that follower nothing more, so no newer append can overtake
// it: a late snapshot restored over ops the follower already acknowledged
// would leave it behind the ack the leader counts toward commit.
func TestStraggledAppendIsNotOvertaken(t *testing.T) {
	var stalled atomic.Value
	stalled.Store("")
	const lease = 100 * time.Millisecond
	r := newRig(t, []string{"a", "b", "c"}, func(_ string, o *Options) {
		o.HeartbeatInterval = time.Hour // every round below is the test's
		o.LeaseDuration = lease
		o.Transport = stallTransport{Transport: o.Transport, to: &stalled, stall: 3 * lease / 2, once: true}
	})
	r.startAll()
	lead, c := r.clusters["a"], r.clusters["c"]
	stalled.Store("c") // the term's first append to c: its snapshot
	lead.runElection()
	if !lead.IsLeader() {
		t.Fatal("a did not win its election")
	}
	for i := 0; i < 3; i++ {
		if err := lead.Record(OpDeploy, fmt.Sprint("g", i), json.RawMessage(`{}`)); err != nil {
			t.Fatalf("Record %d: %v", i, err)
		}
	}
	time.Sleep(2 * lease) // the stalled snapshot lands
	want := lead.Store().Serialize()
	waitFor(t, time.Second, "c converges on the leader's store", func() bool {
		lead.broadcastAppend()
		return bytes.Equal(c.Store().Serialize(), want)
	})
}

// --- HTTP transport --------------------------------------------------------

func TestHTTPTransportRoundTrip(t *testing.T) {
	// Two replicas wired over real HTTP: RPCHandler on the server side,
	// HTTPTransport on the client side.
	var peers []PeerSpec
	ids := []string{"a", "b"}
	servers := make(map[string]*httptest.Server)
	clusters := make(map[string]*Cluster)

	// Allocate listeners first so peer addresses are known up front.
	for _, id := range ids {
		srv := httptest.NewServer(nil)
		servers[id] = srv
		peers = append(peers, PeerSpec{ID: id, Addr: srv.URL})
	}
	for _, id := range ids {
		c, err := New(Options{
			ID:                id,
			ClusterID:         "http-test",
			Peers:             peers,
			Transport:         NewHTTPTransport(peers, nil),
			HeartbeatInterval: 10 * time.Millisecond,
			LeaseDuration:     150 * time.Millisecond,
			CommitTimeout:     time.Second,
		})
		if err != nil {
			t.Fatalf("New(%s): %v", id, err)
		}
		clusters[id] = c
		servers[id].Config.Handler = c.RPCHandler()
	}
	t.Cleanup(func() {
		for _, c := range clusters {
			c.Close()
		}
		for _, s := range servers {
			s.Close()
		}
	})
	for _, c := range clusters {
		c.Start()
	}

	var lead *Cluster
	waitFor(t, 5*time.Second, "leader over HTTP", func() bool {
		for _, c := range clusters {
			if c.IsLeader() {
				lead = c
				return true
			}
		}
		return false
	})
	if err := lead.Record(OpDeploy, "g1", json.RawMessage(`{"v":1}`)); err != nil {
		t.Fatalf("Record over HTTP: %v", err)
	}
	want := lead.Store().Serialize()
	waitFor(t, 3*time.Second, "replication over HTTP", func() bool {
		for _, c := range clusters {
			if !bytes.Equal(c.Store().Serialize(), want) {
				return false
			}
		}
		return true
	})
}
