package cluster

import "repro/internal/telemetry"

// Collect implements telemetry.Collector: the cluster's health as seen
// from this replica, registered into the global orchestrator's /metrics.
func (c *Cluster) Collect(e *telemetry.Exposition) {
	c.mu.Lock()
	self := c.self
	leader := c.leader
	isLeader := c.leasedLocked()
	term := c.term
	commit := c.commitSeq
	applied := c.store.LastApplied()
	lag := c.replicationLagLocked()
	c.mu.Unlock()

	lead := 0.0
	if isLeader {
		lead = 1
	}
	// un_cluster_leader carries the replica's identity and its current
	// view of who leads; the value is whether this replica holds the
	// lease, so max() over the fleet locates the leader and sum() over
	// it catches split-brain (>1 is an alarm).
	e.Gauge("un_cluster_leader", "Whether this replica holds a valid leader lease (labels: own id, observed leader).",
		telemetry.Labels{"id": self, "leader": leader}, lead)
	e.Gauge("un_cluster_term", "Current election term.", telemetry.Labels{"id": self}, float64(term))
	e.Gauge("un_cluster_commit_seq", "Quorum-acknowledged intent sequence number.", telemetry.Labels{"id": self}, float64(commit))
	e.Gauge("un_cluster_applied_seq", "Highest contiguously applied intent sequence number.", telemetry.Labels{"id": self}, float64(applied))
	e.Gauge("un_cluster_replication_lag", "Intent ops the slowest live follower (or this follower) is behind.",
		telemetry.Labels{"id": self}, float64(lag))
	e.Counter("un_cluster_elections_total", "Elections this replica stood for.", nil, c.electionsStarted.Value())
	e.Counter("un_cluster_elections_won_total", "Elections this replica won.", nil, c.electionsWon.Value())
	e.Counter("un_cluster_heartbeat_rounds_total", "Quorum-acknowledged replication rounds led.", nil, c.heartbeatRounds.Value())
	e.Counter("un_cluster_intent_ops_total", "Desired-state ops recorded into the replicated log.", nil, c.opsRecorded.Value())
	e.Counter("un_cluster_ops_shipped_total", "Intent ops carried in append requests to followers (ops recorded × followers when each crosses once).", nil, c.opsShipped.Value())
}
