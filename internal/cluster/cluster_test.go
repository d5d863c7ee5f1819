package cluster

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http/httptest"
	"slices"
	"sync"
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
			ProbeInterval:     10 * time.Millisecond,
			SuspicionTimeout:  50 * time.Millisecond,
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

// --- SWIM tests ------------------------------------------------------------

func TestNodeDeathDetectionAndRecovery(t *testing.T) {
	var probeMu sync.Mutex
	nodeUp := map[string]bool{"node-1": true}
	var stateMu sync.Mutex
	lastState := map[string]bool{}

	r := newRig(t, []string{"a", "b", "c"}, func(id string, o *Options) {
		o.NodeProber = func(node string, rec json.RawMessage) error {
			probeMu.Lock()
			defer probeMu.Unlock()
			if !nodeUp[node] {
				return errors.New("unreachable")
			}
			return nil
		}
		o.OnNodeState = func(node string, alive bool) {
			stateMu.Lock()
			defer stateMu.Unlock()
			lastState[id+"/"+node] = alive
		}
	})
	r.startAll()
	waitFor(t, 3*time.Second, "leader", func() bool { return r.leader() != nil })
	lead := r.leader()
	if err := lead.Record(OpNodeAdd, "node-1", json.RawMessage(`{"url":"http://node-1"}`)); err != nil {
		t.Fatalf("Record node-add: %v", err)
	}
	// Every replica derives the monitored node from the replicated store.
	waitFor(t, 2*time.Second, "node monitored everywhere", func() bool {
		for _, c := range r.clusters {
			found := false
			for _, m := range c.ClusterStatus().Members {
				if m.ID == "node-1" && m.Kind == KindNode {
					found = true
				}
			}
			if !found {
				return false
			}
		}
		return true
	})

	probeMu.Lock()
	nodeUp["node-1"] = false
	probeMu.Unlock()
	start := time.Now()
	waitFor(t, 3*time.Second, "leader notices node death", func() bool {
		stateMu.Lock()
		defer stateMu.Unlock()
		alive, seen := lastState[lead.self+"/node-1"]
		return seen && !alive
	})
	t.Logf("node death detected in %v", time.Since(start))

	probeMu.Lock()
	nodeUp["node-1"] = true
	probeMu.Unlock()
	waitFor(t, 3*time.Second, "node recovery observed", func() bool {
		stateMu.Lock()
		defer stateMu.Unlock()
		return lastState[lead.self+"/node-1"]
	})
}

func TestReplicaSuspicionSpreadsAndRefutes(t *testing.T) {
	r := newRig(t, []string{"a", "b", "c"}, nil)
	r.startAll()
	waitFor(t, 3*time.Second, "leader", func() bool { return r.leader() != nil })
	r.net.SetDown("c", true)
	waitFor(t, 3*time.Second, "c declared dead on a", func() bool {
		for _, m := range r.clusters["a"].ClusterStatus().Members {
			if m.ID == "c" && m.State == StateDead {
				return true
			}
		}
		return false
	})
	// c comes back: its own pings refute the death rumor with a higher
	// incarnation and the table converges back to alive.
	r.net.SetDown("c", false)
	waitFor(t, 3*time.Second, "c alive again everywhere", func() bool {
		for _, c := range r.clusters {
			for _, m := range c.ClusterStatus().Members {
				if m.ID == "c" && m.State != StateAlive {
					return false
				}
			}
		}
		return true
	})
}

// A rumor suspecting us must be refuted in our own gossip: the reply to
// the probe carries our self row Alive at an incarnation above the
// suspicion. (Regression: the incarnation counter bumped but the gossiped
// member row stayed stale, so refutations never propagated.)
func TestSelfRefutationPropagatesInGossip(t *testing.T) {
	r := newRig(t, []string{"a", "b"}, nil)
	a := r.clusters["a"]
	reply, err := a.Ping("b", []MemberUpdate{{ID: "a", Kind: KindReplica, State: StateSuspect, Incarnation: 3}})
	if err != nil {
		t.Fatal(err)
	}
	for _, u := range reply {
		if u.ID != "a" {
			continue
		}
		if u.State != StateAlive || u.Incarnation <= 3 {
			t.Fatalf("self row does not refute the suspicion: %+v", u)
		}
		return
	}
	t.Fatal("gossip reply has no self row")
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
			ProbeInterval:     10 * time.Millisecond,
			SuspicionTimeout:  50 * time.Millisecond,
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
