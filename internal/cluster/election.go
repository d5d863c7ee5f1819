package cluster

import (
	"cmp"
	"slices"
	"time"
)

type role int

const (
	roleFollower role = iota
	roleCandidate
	roleLeader
)

// A replica moves only on events: its heartbeat tick, which re-arms itself
// on the clock, a peer's RPC, and the reply to an RPC of its own. Each
// event is handled whole under c.mu, so the replica is a step function of
// its state, the clock's Now and the event.

// electionTimeout returns a randomized wait in [lease, 2·lease) so
// replicas that lose a leader at the same instant do not all stand for
// election in the same tick.
func (c *Cluster) electionTimeout() time.Duration {
	d := c.opts.LeaseDuration
	return d + time.Duration(c.clk.Int63n(int64(d)))
}

// tick runs once per HeartbeatInterval while the replica is started: a
// leader renews its lease with an append round, or fences itself once the
// lease has lapsed; a follower stands for election once its timeout has
// passed with no live lease; and every commit wait re-checks its deadline.
func (c *Cluster) tick() {
	c.mu.Lock()
	if !c.started {
		c.mu.Unlock()
		return
	}
	now := c.clk.Now()
	switch {
	case c.role == roleLeader && now.After(c.leaseUntil) && now.After(c.electionAt):
		// Fencing: could not renew the lease with a quorum — step
		// down before a new leader can be elected elsewhere.
		c.stepDownLocked("lease expired without quorum")
	case c.role == roleLeader:
		c.broadcastLocked()
	case now.After(c.electionAt) && c.leaderGoneLocked(now):
		c.standLocked()
	}
	c.signalLocked()
	c.unlock()
	c.clk.AfterFunc(c.opts.HeartbeatInterval, c.tick)
}

// leasedLocked reports whether this replica leads under a live lease: the
// fence every write and IsLeader pass.
func (c *Cluster) leasedLocked() bool {
	return c.role == roleLeader && c.clk.Now().Before(c.leaseUntil)
}

// leaderGoneLocked reports whether no lease is live as this replica sees
// it: as leader, its own lease has lapsed; as follower, it knows no leader
// or has heard no valid Append for one LeaseDuration. The lease is the only
// input to leadership. A leader times its lease from the start of the
// round that renewed it, before any follower acknowledged it, so a voter
// that acknowledged that round sees the lease lapse no earlier than the
// leader does: every vote quorum holds such a voter, and no two replicas
// hold a lease at once.
func (c *Cluster) leaderGoneLocked(now time.Time) bool {
	if c.role == roleLeader {
		return !now.Before(c.leaseUntil)
	}
	return c.leader == "" || now.Sub(c.leaderSeen) >= c.opts.LeaseDuration
}

// stepDownLocked demotes a leader to follower and schedules the next
// election chance; unlock fires OnDemote.
func (c *Cluster) stepDownLocked(why string) {
	if c.role == roleLeader {
		c.logf("cluster %s: stepping down in term %d: %s", c.self, c.term, why)
		c.demoted = true
	}
	c.role = roleFollower
	c.leader = ""
	c.electionAt = c.clk.Now().Add(c.electionTimeout())
	c.signalLocked()
}

// standLocked opens an election with a pre-vote canvass and schedules the
// next election chance, should this one fail.
func (c *Cluster) standLocked() {
	c.electionAt = c.clk.Now().Add(c.electionTimeout())
	lastTerm, lastSeq := c.store.LastTermSeq()
	c.canvassLocked(VoteRequest{ClusterID: c.opts.ClusterID, Candidate: c.self, Term: c.term + 1, LastTerm: lastTerm, LastSeq: lastSeq, Pre: true})
}

// canvassLocked asks every replica peer for its vote (or pre-vote) on req.
// Each reply is tallied where it lands; a reply from a newer term is
// adopted, and this replica stays a follower.
//
// A replica stands for leadership in two canvasses (Ongaro's PreVote). The
// pre-vote asks every replica peer whether it would grant a vote at the
// next term, and changes no term, vote or role anywhere. Only a quorum of
// pre-votes starts the election proper: bump the term, vote for self and
// canvass again. A replica cut from a healthy leader thus fails its
// pre-vote and raises no term that would depose the leader. Promotion
// requires a majority of the static replica set, and the lease only
// becomes valid once the first append round is majority-acknowledged.
func (c *Cluster) canvassLocked(req VoteRequest) {
	p := &req
	c.poll, c.votes = p, 1
	for _, id := range c.peers {
		peer, err := c.opts.Transport.Dial(id)
		if err != nil {
			continue
		}
		c.clk.AfterFunc(0, func() {
			reply, err := peer.RequestVote(req)
			c.mu.Lock()
			defer c.unlock()
			if err != nil || p != c.poll {
				return // unreachable, or a canvass this replica has moved past
			}
			if reply.Term > c.term {
				c.term = reply.Term
				c.stepDownLocked("peer has higher term")
				return
			}
			if reply.Granted {
				c.votes++
				c.tallyLocked()
			}
		})
	}
	c.tallyLocked()
}

// tallyLocked advances the canvass once it has its quorum: a pre-vote
// opens the election proper, unless a leader or a newer term turned up
// meanwhile; a vote still current wins the term.
func (c *Cluster) tallyLocked() {
	req := *c.poll
	if c.votes < c.quorum() {
		return
	}
	c.poll = nil
	term := req.Term
	if req.Pre {
		if c.role == roleLeader || c.term != term-1 || !c.leaderGoneLocked(c.clk.Now()) {
			return
		}
		c.role, c.term, c.votedTerm, c.votedFor = roleCandidate, term, term, c.self
		c.electionsStarted.Inc()
		req.Pre = false
		c.canvassLocked(req)
		return
	}
	if c.term != term || c.role != roleCandidate {
		return
	}
	// Won. The log window rebases just past the replicated store; the
	// lease starts expired and is earned by the first quorum-acked
	// append round below (renewLeaseLocked promotes), so IsLeader never
	// precedes quorum contact; a leader that earns none within one lease
	// steps down at its tick. Every follower starts the term unsynced:
	// sequence numbers restart at this replica's applied point, so a
	// follower may hold a divergent uncommitted suffix from the previous
	// leader at seqs this term reuses. Until a follower acknowledges this
	// term's snapshot baseline it receives no incremental ops and its acks
	// count for nothing (the log-matching property, enforced by resync
	// instead of rollback).
	c.role = roleLeader
	c.leader = c.self
	c.leaseUntil = time.Time{}
	c.electionAt = c.clk.Now().Add(c.opts.LeaseDuration)
	c.log.Reset(c.store.LastApplied())
	c.acked, c.heard, c.synced, c.unreached = make(map[string]uint64), make(map[string]time.Time), make(map[string]bool), make(map[string]bool)
	c.syncedTerm = term // our own store is this term's baseline
	c.electionsWon.Inc()
	c.broadcastLocked()
}

// RequestVote implements Peer. The lease guard runs before any term is
// adopted: while this replica believes a lease is live (leaderGoneLocked)
// it refuses a candidate other than that leader and changes nothing, so a
// replica cut from a healthy leader cannot depose it by raising the term
// (leader stickiness). Otherwise the vote goes to a candidate whose term
// is current or newer, who is the first asked for in its term, and whose
// log is at least as complete as ours. A pre-vote runs the same checks and
// changes no state at all.
func (c *Cluster) RequestVote(req VoteRequest) (VoteReply, error) {
	if req.ClusterID != c.opts.ClusterID {
		return VoteReply{}, errWrongCluster
	}
	c.mu.Lock()
	defer c.unlock()
	now := c.clk.Now()
	reply := VoteReply{Term: c.term}
	if req.Term < c.term || (c.votedTerm == req.Term && c.votedFor != req.Candidate) {
		return reply, nil
	}
	// Election restriction: rank histories by (term, seq) of the newest
	// applied op. Comparing seq alone would let a replica whose history
	// ends in an older term's uncommitted suffix tie with — and depose —
	// replicas holding committed ops at the same sequence numbers.
	myTerm, mySeq := c.store.LastTermSeq()
	if req.LastTerm < myTerm || (req.LastTerm == myTerm && req.LastSeq < mySeq) {
		return reply, nil
	}
	if c.leader != req.Candidate && !c.leaderGoneLocked(now) {
		return reply, nil
	}
	reply.Granted = true
	if req.Pre {
		return reply, nil
	}
	if req.Term > c.term {
		c.term = req.Term
		reply.Term = req.Term
		if c.role == roleLeader {
			c.stepDownLocked("vote request with higher term")
		}
		c.role = roleFollower
	}
	c.votedTerm, c.votedFor, c.leader = req.Term, req.Candidate, ""
	c.electionAt = now.Add(c.electionTimeout())
	return reply, nil
}

// broadcastLocked starts an append round: every follower with no append in
// flight gets one now (sendLocked), timed from this instant. A single
// replica renews its lease and commits on the spot.
func (c *Cluster) broadcastLocked() {
	if c.role != roleLeader {
		return
	}
	c.roundAt = c.clk.Now()
	for _, id := range c.peers {
		c.sendLocked(id)
	}
	c.renewLeaseLocked()
	c.advanceCommitLocked()
}

// sendLocked sends one append to follower id as part of the current round.
// A follower not yet synced to this term gets a full snapshot (truncating
// any divergent suffix a deposed leader left on it), a synced one the ops
// past its acknowledgement (or a snapshot again when its ack fell out of
// the log window). An unsynced follower whose last append failed gets an
// empty append instead, and its snapshot once it answers. While an append
// is in flight to a follower it gets no other, so its appends never
// overtake each other, and no op goes out twice to it unless one is lost.
func (c *Cluster) sendLocked(id string) {
	if _, busy := c.inflight[id]; busy {
		return
	}
	peer, err := c.opts.Transport.Dial(id)
	if err != nil {
		return
	}
	req := AppendRequest{ClusterID: c.opts.ClusterID, Leader: c.self, Term: c.term, CommitSeq: c.commitSeq}
	if ops, inWindow := c.log.Since(c.acked[id]); c.synced[id] && inWindow {
		req.Ops = ops
	} else if !c.unreached[id] {
		snap := c.store.Snapshot()
		req.Snapshot = &snap
	}
	c.opsShipped.Add(uint64(len(req.Ops)))
	s := sent{upTo: c.log.LastSeq(), at: c.roundAt}
	c.inflight[id] = s
	c.clk.AfterFunc(0, func() {
		reply, err := peer.Append(req)
		c.mu.Lock()
		defer c.unlock()
		c.onAppendLocked(id, s, req, reply, err)
	})
}

// sent is an append in flight: the seq the follower holds once it applies
// it, and the start of the round it belongs to.
type sent struct {
	upTo uint64
	at   time.Time
}

// onAppendLocked handles one follower's answer to append req, sent as s.
// A current-term acknowledgement counts
// toward the lease and the commit point as it lands; one from any other
// term counts for nothing. A follower the answer leaves behind the log
// tail gets its next append at once, never waiting for a tick, as long as
// it applied all it was sent (an append that made no progress waits for
// the tick).
func (c *Cluster) onAppendLocked(id string, s sent, req AppendRequest, reply AppendReply, err error) {
	delete(c.inflight, id)
	c.signalLocked()
	if c.unreached[id] = err != nil; err != nil {
		return
	}
	if reply.Term > c.term {
		c.term = reply.Term
		c.stepDownLocked("append rejected by higher term")
		return
	}
	if c.role != roleLeader || c.term != req.Term || reply.Term != req.Term {
		return
	}
	tail := c.log.LastSeq()
	if reply.Ok && s.at.After(c.heard[id]) {
		c.heard[id] = s.at
	}
	if !reply.Ok || reply.Acked > tail {
		// Ok=false at our own term means the follower refused an
		// append without a snapshot (it restarted, or never adopted this
		// term's baseline); an ack past our log tail is a divergent suffix we
		// never appended. Either way: resync from a snapshot, and stop
		// counting its old ack toward commit — a restarted follower no
		// longer holds the ops that ack claimed.
		delete(c.synced, id)
		delete(c.acked, id)
	} else {
		c.synced[id] = true
		c.acked[id] = max(c.acked[id], reply.Acked)
	}
	c.renewLeaseLocked()
	c.advanceCommitLocked()
	if c.synced[id] && reply.Acked >= s.upTo && reply.Acked < tail || !reply.Ok && req.Snapshot == nil {
		c.sendLocked(id)
	}
}

// renewLeaseLocked extends the lease to LeaseDuration past the newest round
// start a quorum acknowledged, self included. Earning the term's first
// lease promotes this replica (unlock runs OnPromote).
func (c *Cluster) renewLeaseLocked() {
	at := quorumPoint(c.roundAt, c.heard, c.peers, c.quorum(), time.Time.Compare)
	if at.IsZero() {
		return
	}
	if until := at.Add(c.opts.LeaseDuration); until.After(c.leaseUntil) {
		if c.leaseUntil.IsZero() {
			c.promoted = c.term
		}
		c.leaseUntil = until
		c.heartbeatRounds.Inc()
	}
}

// advanceCommitLocked recomputes the commit point: the quorum-th highest
// contiguously-acknowledged sequence number across the replica set (self
// counts at the log tail).
func (c *Cluster) advanceCommitLocked() {
	if seq := quorumPoint(c.log.LastSeq(), c.acked, c.peers, c.quorum(), cmp.Compare[uint64]); seq > c.commitSeq {
		c.commitSeq = seq
		c.signalLocked()
	}
}

// quorumPoint is the newest value q replicas have reached: the q-th largest
// of self's and each peer's.
func quorumPoint[T any](self T, of map[string]T, peers []string, q int, compare func(a, b T) int) T {
	vals := append(make([]T, 0, len(peers)+1), self)
	for _, p := range peers {
		vals = append(vals, of[p])
	}
	slices.SortFunc(vals, func(a, b T) int { return compare(b, a) })
	return vals[q-1]
}

// Append implements Peer: the follower side of replication. A valid
// append from the current (or newer) term adopts the leader, restores the
// snapshot if one rode along (which also marks this term's baseline as
// adopted), applies the ops idempotently and reports the contiguous apply
// point back as the acknowledgement. An append without a snapshot from a
// term whose baseline we have not adopted is refused (Ok=false) so the
// leader reseeds us with a snapshot — without that guard a replica left
// holding a deposed leader's uncommitted suffix would ack the new leader's
// different ops at the same sequence numbers as duplicates.
func (c *Cluster) Append(req AppendRequest) (AppendReply, error) {
	if req.ClusterID != c.opts.ClusterID {
		return AppendReply{}, errWrongCluster
	}
	c.mu.Lock()
	defer c.unlock()
	now := c.clk.Now()
	if req.Term < c.term {
		return AppendReply{Term: c.term, Acked: c.store.LastApplied()}, nil
	}
	if req.Term > c.term || c.role != roleFollower {
		if c.role == roleLeader {
			c.stepDownLocked("append from newer leader")
		}
		c.role = roleFollower
	}
	if c.term != req.Term || c.leader != req.Leader {
		// Ops parked while the previous leader was streaming may occupy
		// sequence numbers this leader reuses for different ops; discard
		// them rather than fold them across the leadership boundary.
		c.store.ClearPending()
	}
	if c.leader != req.Leader {
		c.journalf(eventLeaderElected, req.Leader, "", "following leader %s in term %d", req.Leader, req.Term)
	}
	c.term, c.leader, c.leaderSeen = req.Term, req.Leader, now
	c.electionAt = now.Add(c.electionTimeout())
	c.commitSeq = max(c.commitSeq, req.CommitSeq)
	if req.Snapshot != nil {
		c.store.Restore(*req.Snapshot)
		c.syncedTerm = req.Term
	}
	if c.syncedTerm != req.Term && req.Snapshot == nil {
		return AppendReply{Term: req.Term, Acked: c.store.LastApplied()}, nil
	}
	for _, op := range req.Ops {
		c.store.Apply(op)
	}
	return AppendReply{Term: req.Term, Acked: c.store.LastApplied(), Ok: true}, nil
}
