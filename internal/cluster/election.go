package cluster

import (
	"math/rand"
	"time"
)

type role int

const (
	roleFollower role = iota
	roleCandidate
	roleLeader
)

// electionTimeout returns a randomized wait in [lease, 2·lease) so
// replicas that lose a leader at the same instant do not all stand for
// election in the same tick.
func (c *Cluster) electionTimeout() time.Duration {
	d := c.opts.LeaseDuration
	return d + time.Duration(rand.Int63n(int64(d)))
}

// electLoop drives the leader side (heartbeats, lease renewal, fencing)
// and the follower side (election timeouts) from one goroutine, once per
// HeartbeatInterval. A write does not wait for the tick: WaitCommit runs
// its own replication round as soon as it is called.
func (c *Cluster) electLoop() {
	defer c.wg.Done()
	ticker := time.NewTicker(c.opts.HeartbeatInterval)
	defer ticker.Stop()
	for {
		select {
		case <-c.stop:
			return
		case <-ticker.C:
		}
		c.electTick()
	}
}

func (c *Cluster) electTick() {
	now := time.Now()
	c.mu.Lock()
	switch c.role {
	case roleLeader:
		if now.After(c.leaseUntil) {
			// Fencing: could not renew the lease with a quorum —
			// step down before a new leader can be elected elsewhere.
			c.stepDownLocked("lease expired without quorum")
			c.mu.Unlock()
			c.fireDemote()
			return
		}
		c.mu.Unlock()
		c.broadcastAppend()
	default:
		start := now.After(c.electionAt) && c.leaderGoneLocked(now)
		c.mu.Unlock()
		if start {
			c.runElection()
		}
	}
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
// election chance. Caller fires OnDemote after unlocking.
func (c *Cluster) stepDownLocked(why string) {
	if c.role == roleLeader {
		c.logf("cluster %s: stepping down in term %d: %s", c.self, c.term, why)
	}
	c.role = roleFollower
	c.leader = ""
	c.electionAt = time.Now().Add(c.electionTimeout())
}

func (c *Cluster) fireDemote() {
	if c.opts.OnDemote != nil {
		c.opts.OnDemote()
	}
}

// answer is one peer's reply to a fanOut round; ok is false when the peer
// could not be reached, refused the call or answered too late.
type answer[R any] struct {
	r  R
	ok bool
}

// fanOut runs call(i) for every i < n in parallel and returns, by index,
// the replies that arrived within half a LeaseDuration of start. A
// straggler finishes into the buffered channel and counts for nothing: a
// round never waits on a stalled peer past the point where the lease it
// renews would be half spent.
func fanOut[R any](c *Cluster, start time.Time, n int, call func(i int) (R, error)) []answer[R] {
	type result struct {
		i   int
		r   R
		err error
	}
	out := make([]answer[R], n)
	if n == 0 {
		return out
	}
	ch := make(chan result, n)
	for i := range n {
		go func() {
			r, err := call(i)
			ch <- result{i, r, err}
		}()
	}
	timer := time.NewTimer(time.Until(start.Add(c.opts.LeaseDuration / 2)))
	defer timer.Stop()
	for range n {
		select {
		case res := <-ch:
			out[res.i] = answer[R]{r: res.r, ok: res.err == nil}
		case <-timer.C:
			return out
		}
	}
	return out
}

// canvass asks every replica peer for its vote (or pre-vote) on req and
// reports whether a quorum, self included, granted it. A reply from a
// newer term is adopted, and this replica stays a follower.
func (c *Cluster) canvass(peers []string, req VoteRequest) bool {
	answers := fanOut(c, time.Now(), len(peers), func(i int) (VoteReply, error) {
		peer, err := c.opts.Transport.Dial(peers[i])
		if err != nil {
			return VoteReply{}, err
		}
		return peer.RequestVote(req)
	})
	votes := 1 // self
	var maxTerm uint64
	for _, a := range answers {
		if a.ok && a.r.Granted {
			votes++
		}
		maxTerm = max(maxTerm, a.r.Term)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if maxTerm > c.term {
		c.term = maxTerm
		c.stepDownLocked("peer has higher term")
		return false
	}
	return votes >= c.quorum()
}

// runElection stands for leadership in two rounds (Ongaro's PreVote). The
// pre-vote asks every replica peer whether it would grant a vote at the
// next term, and changes no term, vote or role anywhere. Only a quorum of
// pre-votes starts the election proper: bump the term, vote for self and
// canvass again. A replica cut from a healthy leader thus fails its
// pre-vote and raises no term that would depose the leader. Promotion
// requires a majority of the static replica set, and the lease only
// becomes valid once the first heartbeat round is majority-acknowledged.
func (c *Cluster) runElection() {
	c.mu.Lock()
	if c.role == roleLeader {
		c.mu.Unlock()
		return
	}
	c.electionAt = time.Now().Add(c.electionTimeout())
	term := c.term + 1
	lastTerm, lastSeq := c.store.LastTermSeq()
	peers := c.replicaPeersLocked()
	c.mu.Unlock()

	req := VoteRequest{ClusterID: c.opts.ClusterID, Candidate: c.self, Term: term, LastTerm: lastTerm, LastSeq: lastSeq, Pre: true}
	if !c.canvass(peers, req) {
		return
	}
	c.mu.Lock()
	if c.role == roleLeader || c.term != term-1 || !c.leaderGoneLocked(time.Now()) {
		c.mu.Unlock()
		return // a leader or a newer term turned up during the pre-vote
	}
	c.role = roleCandidate
	c.term = term
	c.votedTerm = term
	c.votedFor = c.self
	c.mu.Unlock()

	c.electionsStarted.Inc()
	req.Pre = false
	won := c.canvass(peers, req)

	c.mu.Lock()
	if !won || c.term != term || c.role != roleCandidate {
		if c.role == roleCandidate {
			c.role = roleFollower
		}
		c.mu.Unlock()
		return
	}
	// Won. The log window rebases just past the replicated store; the
	// lease starts expired and is earned by the first quorum-acked
	// heartbeat round below, so IsLeader never precedes quorum contact.
	// Every follower starts the term unsynced: sequence numbers restart
	// at this replica's applied point, so a follower may hold a divergent
	// uncommitted suffix from the previous leader at seqs this term
	// reuses. Until a follower acknowledges this term's snapshot baseline
	// it receives no incremental ops and its acks count for nothing
	// (the log-matching property, enforced by resync instead of rollback).
	c.role = roleLeader
	c.leader = c.self
	c.leaseUntil = time.Time{}
	c.log.Reset(c.store.LastApplied())
	c.acked = make(map[string]uint64)
	c.heard = make(map[string]time.Time)
	c.synced = make(map[string]bool)
	c.syncedTerm = term // our own store is this term's baseline
	c.mu.Unlock()

	c.electionsWon.Inc()
	c.broadcastAppend()

	c.mu.Lock()
	promoted := c.role == roleLeader && time.Now().Before(c.leaseUntil)
	c.mu.Unlock()
	if promoted {
		c.journalf(eventLeaderElected, c.self, "", "replica %s elected leader in term %d", c.self, term)
		c.logf("cluster %s: elected leader in term %d (seq %d)", c.self, term, lastSeq)
		if c.opts.OnPromote != nil {
			c.opts.OnPromote(term)
		}
	}
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
	now := time.Now()
	c.mu.Lock()
	defer c.mu.Unlock()
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
			defer c.fireDemote()
		}
		c.role = roleFollower
	}
	c.votedTerm = req.Term
	c.votedFor = req.Candidate
	c.leader = ""
	c.electionAt = now.Add(c.electionTimeout())
	return reply, nil
}

// broadcastAppend runs one replication/heartbeat round, in parallel per
// follower: a follower not yet synced to this term gets a full snapshot
// (truncating any divergent suffix a deposed leader left on it), a synced
// one the ops past its acknowledgement (or a snapshot again when its ack
// fell out of the log window). A majority of current-term
// acknowledgements within half a lease (fanOut) advances the commit point
// and renews the leader lease from the round's start time; replies from
// any other term are ignored.
//
// Rounds do not overlap: a heartbeat tick that lands while a commit wait's
// round is in flight waits for its acknowledgements, so it reads the ops
// past them and ships none of that round's ops again. A follower whose
// append from an earlier round is still in flight is skipped until it
// answers, so its appends never overtake each other.
func (c *Cluster) broadcastAppend() {
	c.roundMu.Lock()
	defer c.roundMu.Unlock()
	start := time.Now()
	c.mu.Lock()
	if c.role != roleLeader {
		c.mu.Unlock()
		return
	}
	term := c.term
	commit := c.commitSeq
	peers := c.replicaPeersLocked()
	type dest struct {
		id  string
		req AppendRequest
	}
	var snap *Snapshot // built once, shared read-only across requests
	dests := make([]dest, 0, len(peers))
	for _, id := range peers {
		if c.sending[id] {
			continue
		}
		c.sending[id] = true
		req := AppendRequest{ClusterID: c.opts.ClusterID, Leader: c.self, Term: term, CommitSeq: commit}
		ops, inWindow := c.log.Since(c.acked[id])
		if c.synced[id] && inWindow {
			req.Ops = ops
		} else {
			if snap == nil {
				s := c.store.Snapshot()
				snap = &s
			}
			req.Snapshot = snap
		}
		dests = append(dests, dest{id: id, req: req})
	}
	c.mu.Unlock()

	answers := fanOut(c, start, len(dests), func(i int) (AppendReply, error) {
		d := &dests[i]
		defer func() {
			c.mu.Lock()
			delete(c.sending, d.id)
			c.mu.Unlock()
		}()
		peer, err := c.opts.Transport.Dial(d.id)
		if err != nil {
			return AppendReply{}, err
		}
		c.opsShipped.Add(uint64(len(d.req.Ops)))
		return peer.Append(d.req)
	})

	c.mu.Lock()
	defer c.mu.Unlock()
	var maxTerm uint64
	for _, a := range answers {
		maxTerm = max(maxTerm, a.r.Term)
	}
	if maxTerm > c.term {
		c.term = maxTerm
		c.stepDownLocked("append rejected by higher term")
		defer c.fireDemote()
		return
	}
	if c.role != roleLeader || c.term != term {
		return
	}
	acks := 1 // self
	tail := c.log.LastSeq()
	for i, a := range answers {
		if !a.ok || a.r.Term != term {
			continue // no reply in time, or a stale-term one: not an acknowledgement of ours
		}
		id := dests[i].id
		c.heard[id] = start
		if a.r.Ok {
			acks++
		}
		if !a.r.Ok || a.r.Acked > tail {
			// Ok=false at our own term means the follower refused
			// incremental ops (it restarted, or never adopted this term's
			// baseline); an ack past our log tail is a divergent suffix we
			// never appended. Either way: resync from a snapshot, and stop
			// counting its old ack toward commit — a restarted follower no
			// longer holds the ops that ack claimed.
			delete(c.synced, id)
			delete(c.acked, id)
			continue
		}
		c.synced[id] = true
		if a.r.Acked > c.acked[id] {
			c.acked[id] = a.r.Acked
		}
	}
	if acks >= c.quorum() {
		c.leaseUntil = start.Add(c.opts.LeaseDuration)
		c.heartbeatRounds.Inc()
	}
	c.advanceCommitLocked()
}

// advanceCommitLocked recomputes the commit point: the quorum-th highest
// contiguously-acknowledged sequence number across the replica set (self
// counts at the log tail).
func (c *Cluster) advanceCommitLocked() {
	seqs := []uint64{c.log.LastSeq()}
	for _, id := range c.replicaPeersLocked() {
		seqs = append(seqs, c.acked[id])
	}
	q := c.quorum()
	if len(seqs) < q {
		return
	}
	// Sort descending; the q-th entry is replicated on at least q replicas.
	for i := 1; i < len(seqs); i++ {
		for j := i; j > 0 && seqs[j] > seqs[j-1]; j-- {
			seqs[j], seqs[j-1] = seqs[j-1], seqs[j]
		}
	}
	if seq := seqs[q-1]; seq > c.commitSeq {
		c.commitSeq = seq
	}
}

// Append implements Peer: the follower side of replication. A valid
// append from the current (or newer) term adopts the leader, restores the
// snapshot if one rode along (which also marks this term's baseline as
// adopted), applies the ops idempotently and reports the contiguous apply
// point back as the acknowledgement. Incremental ops from a term whose
// baseline we have not adopted are refused (Ok=false) so the leader
// reseeds us with a snapshot — without that guard a replica left holding
// a deposed leader's uncommitted suffix would ack the new leader's
// different ops at the same sequence numbers as duplicates.
func (c *Cluster) Append(req AppendRequest) (AppendReply, error) {
	if req.ClusterID != c.opts.ClusterID {
		return AppendReply{}, errWrongCluster
	}
	now := time.Now()
	c.mu.Lock()
	if req.Term < c.term {
		reply := AppendReply{Term: c.term, Acked: c.store.LastApplied()}
		c.mu.Unlock()
		return reply, nil
	}
	var demoted bool
	if req.Term > c.term || c.role != roleFollower {
		if c.role == roleLeader {
			c.stepDownLocked("append from newer leader")
			demoted = true
		}
		c.role = roleFollower
	}
	termChanged := c.term != req.Term
	c.term = req.Term
	newLeader := c.leader != req.Leader
	c.leader = req.Leader
	c.leaderSeen = now
	c.electionAt = now.Add(c.electionTimeout())
	if req.CommitSeq > c.commitSeq {
		c.commitSeq = req.CommitSeq
	}
	if termChanged || newLeader {
		// Ops parked while the previous leader was streaming may occupy
		// sequence numbers this leader reuses for different ops; discard
		// them rather than fold them across the leadership boundary.
		c.store.ClearPending()
	}
	c.mu.Unlock()

	if demoted {
		c.fireDemote()
	}
	if newLeader {
		c.journalf(eventLeaderElected, req.Leader, "", "following leader %s in term %d", req.Leader, req.Term)
	}
	if req.Snapshot != nil {
		c.store.Restore(*req.Snapshot)
	}
	c.mu.Lock()
	if req.Snapshot != nil && c.term == req.Term {
		c.syncedTerm = req.Term
	}
	synced := c.syncedTerm == req.Term
	c.mu.Unlock()
	if !synced && len(req.Ops) > 0 {
		return AppendReply{Term: req.Term, Acked: c.store.LastApplied()}, nil
	}
	for _, op := range req.Ops {
		c.store.Apply(op)
	}
	return AppendReply{Term: req.Term, Acked: c.store.LastApplied(), Ok: true}, nil
}
