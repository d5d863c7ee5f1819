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

// waitFor polls cond on the wall clock: only the tests that drive the real
// clock (Start over LocalNetwork, and HTTP) use it.
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

// --- elections, in virtual time --------------------------------------------

func TestSingleReplicaSelfElects(t *testing.T) {
	runSeed(t, 1, []string{"a"}, nil, func(s *sim) error {
		s.start()
		a := s.nodes["a"]
		if err := s.runUntil(time.Second, "self-election", a.IsLeader); err != nil {
			return err
		}
		if err := s.record(a, OpDeploy, "g1", `{}`); err != nil {
			return fmt.Errorf("Record on single-replica leader: %v", err)
		}
		if a.CommitSeq() != 1 {
			return fmt.Errorf("commit = %d, want 1 (quorum of one)", a.CommitSeq())
		}
		return nil
	})
}

// Leadership is unique (the simulator's invariants) and every replica
// agrees on it.
func TestThreeReplicasElectExactlyOneLeader(t *testing.T) {
	runSeed(t, 1, abc, nil, func(s *sim) error {
		s.start()
		_, err := s.settle()
		return err
	})
}

func TestLeaderKillPromotesFollowerWithIntentIntact(t *testing.T) {
	runSeed(t, 1, abc, nil, func(s *sim) error {
		s.start()
		old, err := s.settle()
		if err != nil {
			return err
		}
		for i := 0; i < 5; i++ {
			if err := s.record(old, OpDeploy, fmt.Sprintf("g%d", i), fmt.Sprintf(`{"i":%d}`, i)); err != nil {
				return fmt.Errorf("Record: %v", err)
			}
		}
		if err := s.runUntil(time.Second, "replication drained", func() bool { return old.ReplicationLag() == 0 }); err != nil {
			return err
		}
		want := old.Store().Serialize()

		s.setDown(old.self, true)
		var next *Cluster
		if err := s.runUntil(3*time.Second, "failover", func() bool {
			next = s.leader()
			return next != nil && next != old
		}); err != nil {
			return err
		}
		// Promotion replay: the new leader's intent store must be
		// byte-identical to the old leader's.
		if got := next.Store().Serialize(); !bytes.Equal(got, want) {
			return fmt.Errorf("intent store diverged across failover:\nold: %s\nnew: %s", want, got)
		}
		// The dead ex-leader is fenced within its lease.
		if old.IsLeader() {
			return fmt.Errorf("dead ex-leader still holds its lease beside %s", next.self)
		}
		if err := s.record(old, OpDeploy, "gX", `{}`); !errors.Is(err, ErrNotLeader) {
			return fmt.Errorf("fenced ex-leader Record = %v, want ErrNotLeader", err)
		}
		return nil
	})
}

// Cut the leader off from both followers: the majority side elects a
// successor, the minority-side ex-leader loses its lease and fences. Writes
// proceed on the majority side; once healed, the ex-leader rejoins as a
// follower and converges on the majority's intent, including ops it never
// saw.
func TestPartitionedLeaderFencesAndRejoins(t *testing.T) {
	runSeed(t, 1, abc, nil, func(s *sim) error {
		s.start()
		old, err := s.settle()
		if err != nil {
			return err
		}
		if err := s.record(old, OpDeploy, "g1", `{"v":1}`); err != nil {
			return fmt.Errorf("Record: %v", err)
		}
		s.isolate(old.self)
		var next *Cluster
		if err := s.runUntil(3*time.Second, "majority side elects successor", func() bool {
			next = s.leader()
			return next != nil && next != old
		}); err != nil {
			return err
		}
		if err := s.record(old, OpUpdate, "g1", `{"v":2}`); !errors.Is(err, ErrNotLeader) {
			return fmt.Errorf("partitioned ex-leader accepted a write: %v", err)
		}
		if err := s.record(next, OpUpdate, "g1", `{"v":3}`); err != nil {
			return fmt.Errorf("majority leader Record: %v", err)
		}
		s.rejoin(old.self)
		if err := s.runUntil(3*time.Second, "ex-leader converges as follower", func() bool {
			return !old.IsLeader() && s.converged(next)
		}); err != nil {
			return err
		}
		if got := string(old.Store().Get("graphs", "g1")); got != `{"v":3}` {
			return fmt.Errorf("healed follower g1 = %s, want {\"v\":3}", got)
		}
		return nil
	})
}

// A deposed leader holding a divergent uncommitted op at a sequence the
// new leader reuses must abandon its suffix and converge on the committed
// history. (Regression: seq-only dedup discarded the new leader's op as a
// duplicate, and the stale ack silently counted toward quorum commit.)
func TestDivergentExLeaderResyncsAfterFailover(t *testing.T) {
	runSeed(t, 1, abc, nil, func(s *sim) error {
		s.start()
		old, err := s.settle()
		if err != nil {
			return err
		}
		if err := s.record(old, OpDeploy, "g1", `{"v":1}`); err != nil {
			return fmt.Errorf("Record: %v", err)
		}
		if err := s.runUntil(time.Second, "replication drained", func() bool { return old.ReplicationLag() == 0 }); err != nil {
			return err
		}
		// Cut the leader off and stage an op while its lease is still
		// warm: it applies locally but can never reach quorum — the
		// divergent suffix of a deposed leader.
		s.isolate(old.self)
		if _, err := s.propose(old, OpUpdate, "g1", `{"v":"divergent"}`); err != nil {
			return fmt.Errorf("Propose on still-leased leader: %v", err)
		}
		if got := string(old.Store().Get("graphs", "g1")); got != `{"v":"divergent"}` {
			return fmt.Errorf("divergent op not applied locally: %s", got)
		}
		var next *Cluster
		if err := s.runUntil(3*time.Second, "majority elects successor", func() bool {
			next = s.leader()
			return next != nil && next != old
		}); err != nil {
			return err
		}
		// The successor commits a different op occupying the same sequence.
		if err := s.record(next, OpUpdate, "g1", `{"v":"committed"}`); err != nil {
			return fmt.Errorf("successor Record: %v", err)
		}
		s.rejoin(old.self)
		if err := s.runUntil(3*time.Second, "ex-leader abandons divergent suffix", func() bool {
			return !old.IsLeader() && s.converged(next)
		}); err != nil {
			return err
		}
		if got := string(old.Store().Get("graphs", "g1")); got != `{"v":"committed"}` {
			return fmt.Errorf("divergent suffix survived failover: g1 = %s", got)
		}
		return nil
	})
}

// Voters must refuse candidates whose applied history is behind their own,
// ordered by (LastTerm, LastSeq) — seq length alone is not up-to-dateness.
func TestElectionRestrictionRefusesStaleHistory(t *testing.T) {
	a := newSim(1, []string{"a", "b"}, nil).nodes["a"]
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

// A follower that heard a valid Append within one lease refuses a vote and
// a pre-vote at a higher term, and adopts nothing from either; once the
// lease it observed has lapsed, it grants. A leader refuses while its own
// lease runs.
func TestVoterRefusesWhileLeaseLive(t *testing.T) {
	s := newSim(1, abc, nil)
	b := s.nodes["b"]
	lease := b.opts.LeaseDuration
	if _, err := b.Append(AppendRequest{ClusterID: "test", Leader: "a", Term: 3}); err != nil {
		t.Fatal(err)
	}
	state := func(c *Cluster) string {
		c.mu.Lock()
		defer c.mu.Unlock()
		return fmt.Sprintf("term %d, voted %q in term %d, leader %q, role %d", c.term, c.votedFor, c.votedTerm, c.leader, c.role)
	}
	s.now = s.now.Add(lease / 2)
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

	s.now = s.now.Add(lease / 2)
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

	a := s.nodes["a"]
	a.mu.Lock()
	a.role, a.term, a.leader, a.leaseUntil = roleLeader, 3, "a", s.now.Add(lease)
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

// --- replication, in virtual time ------------------------------------------

func TestFollowersConvergeOnRecordedIntent(t *testing.T) {
	runSeed(t, 1, abc, nil, func(s *sim) error {
		s.start()
		lead, err := s.settle()
		if err != nil {
			return err
		}
		for _, r := range []struct {
			kind      OpKind
			key, data string
		}{
			{OpNodeAdd, "n1", `{"url":"http://n1"}`},
			{OpDeploy, "g1", `{"graph":{"id":"g1"}}`},
			{OpUpdate, "g1", `{"graph":{"id":"g1","rev":2}}`},
		} {
			if err := s.record(lead, r.kind, r.key, r.data); err != nil {
				return err
			}
		}
		return s.runUntil(time.Second, "followers converge", func() bool { return s.converged(lead) })
	})
}

// A log window of 4 with 20 ops recorded before the third replica starts:
// catch-up cannot come from the log, forcing the snapshot path; the joiner
// then keeps up incrementally.
func TestJoinerMidStreamCatchesUpViaSnapshot(t *testing.T) {
	runSeed(t, 1, abc, func(_ string, o *Options) { o.LogDepth = 4 }, func(s *sim) error {
		s.start("a", "b")
		if err := s.runUntil(3*time.Second, "leader among a,b", func() bool { return s.leader() != nil }); err != nil {
			return err
		}
		lead := s.leader()
		for i := 0; i < 20; i++ {
			if err := s.record(lead, OpDeploy, fmt.Sprintf("g%d", i), fmt.Sprintf(`{"i":%d}`, i)); err != nil {
				return fmt.Errorf("Record %d: %v", i, err)
			}
		}
		s.start("c")
		if err := s.runUntil(3*time.Second, "joiner snapshot + catch-up", func() bool { return s.converged(lead) }); err != nil {
			return err
		}
		if err := s.record(lead, OpUndeploy, "g0", ""); err != nil {
			return err
		}
		return s.runUntil(time.Second, "joiner follows the live stream", func() bool { return s.converged(lead) })
	})
}

// Kill both followers: the leader can neither commit nor renew, and
// fences itself.
func TestRecordWithoutQuorumFailsAndLeaderFences(t *testing.T) {
	runSeed(t, 1, abc, nil, func(s *sim) error {
		s.start()
		lead, err := s.settle()
		if err != nil {
			return err
		}
		for _, f := range s.followers(lead) {
			s.setDown(f.self, true)
		}
		if err := s.record(lead, OpDeploy, "g1", `{}`); !errors.Is(err, ErrNoQuorum) && !errors.Is(err, ErrNotLeader) {
			return fmt.Errorf("Record without quorum = %v, want ErrNoQuorum or ErrNotLeader", err)
		}
		return s.runUntil(time.Second, "leader fenced without quorum", func() bool { return !lead.IsLeader() })
	})
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
	runSeed(t, 1, abc, func(_ string, o *Options) {
		o.HeartbeatInterval = time.Hour
		o.LeaseDuration = time.Minute
	}, func(s *sim) error {
		s.start()
		lead := s.nodes["a"]
		lead.mu.Lock()
		lead.standLocked()
		lead.unlock()
		if err := s.runUntil(time.Second, "a's election", lead.IsLeader); err != nil {
			return err
		}

		const n = 20
		ops, rounds := lead.opsShipped.Value(), lead.heartbeatRounds.Value()
		for i := 0; i < n; i++ {
			if err := s.record(lead, OpDeploy, fmt.Sprintf("g%d", i), fmt.Sprintf(`{"i":%d}`, i)); err != nil {
				return fmt.Errorf("Record %d: %v", i, err)
			}
		}
		if got := lead.opsShipped.Value() - ops; got != 2*n {
			return fmt.Errorf("%d Records shipped %d ops to 2 followers, want %d", n, got, 2*n)
		}
		if got := lead.heartbeatRounds.Value() - rounds; got != n {
			return fmt.Errorf("%d Records took %d rounds, want %d", n, got, n)
		}

		const k = 8
		seqs := make([]uint64, k)
		for i := range seqs {
			var err error
			if seqs[i], err = lead.Propose(OpUpdate, fmt.Sprintf("g%d", i), json.RawMessage(fmt.Sprintf(`{"v":%d}`, i))); err != nil {
				return fmt.Errorf("Propose %d: %v", i, err)
			}
		}
		ops, rounds = lead.opsShipped.Value(), lead.heartbeatRounds.Value()
		for _, seq := range seqs {
			if err := s.waitCommit(lead, seq); err != nil {
				return fmt.Errorf("WaitCommit(%d): %v", seq, err)
			}
		}
		if got := lead.opsShipped.Value() - ops; got != 2*k {
			return fmt.Errorf("a flush of %d staged ops shipped %d ops to 2 followers, want %d", k, got, 2*k)
		}
		if got := lead.heartbeatRounds.Value() - rounds; got != 1 {
			return fmt.Errorf("a flush of %d staged ops took %d rounds, want 1", k, got)
		}
		return s.runUntil(time.Second, "followers converge", func() bool { return s.converged(lead) })
	})
}

// --- the real clock ---------------------------------------------------------

// Commit waits from several goroutines and the heartbeat tick, on the wall
// clock, over LocalNetwork: one append at a time is in flight to a
// follower, and the reply that leaves it behind sends it the ops past its
// acknowledgement, so every op still crosses to each follower exactly
// once, and each commit wait returns with its op on its way to both.
func TestConcurrentRecordsShipEachOpOnce(t *testing.T) {
	net := NewLocalNetwork()
	var peers []PeerSpec
	for _, id := range abc {
		peers = append(peers, PeerSpec{ID: id})
	}
	var clusters []*Cluster
	for _, id := range abc {
		c, err := New(Options{
			ID:                id,
			ClusterID:         "test",
			Peers:             peers,
			Transport:         net.Transport(id),
			HeartbeatInterval: 10 * time.Millisecond,
			LeaseDuration:     time.Second, // a stable leader under -race
			CommitTimeout:     5 * time.Second,
		})
		if err != nil {
			t.Fatal(err)
		}
		net.Register(id, c)
		clusters = append(clusters, c)
		c.Start()
		defer c.Close()
	}
	var lead *Cluster
	waitFor(t, 5*time.Second, "leader", func() bool {
		for _, c := range clusters {
			if c.IsLeader() {
				lead = c
			}
		}
		return lead != nil
	})
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
		for _, c := range clusters {
			if !bytes.Equal(c.Store().Serialize(), want) {
				return false
			}
		}
		return true
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
