package global

import (
	"encoding/json"
	"errors"
	"fmt"

	"repro/internal/cluster"
	"repro/internal/nffg"
	"repro/internal/telemetry"
)

// HA intent plumbing: every desired-state mutation the orchestrator
// accepts is applied and then recorded in a replicated intent log
// (internal/cluster) as an opaque record — a deployment is its own record —
// and a freshly promoted leader rebuilds its entire bookkeeping
// (deployments, partitions, stitch VLANs, placement, standby shadows, fleet
// membership, links) from those records with zero node RPCs. The first
// reconcile pass after promotion then adopts the already-running fleet
// through the ordinary drift-repair path, so a leader failover never touches
// the datapath (NAT bindings and other per-flow state survive untouched).

// ErrNotLeader is returned by mutating entry points on a replica that
// does not hold the cluster leader lease. The REST layer turns it into a
// 307 redirect to the leader.
var ErrNotLeader = errors.New("global: not the leader replica")

// ErrNotCommitted is wrapped into the error a mutating entry point
// returns when the change was applied locally (and to the datapath) but
// could not be confirmed replicated to a quorum before the commit
// timeout. The REST layer answers 503 so the client retries: retrying is
// safe (ops are idempotent by key) and the op stays in the leader's log,
// so it commits as soon as quorum returns — but until then a failover
// could lose it, which is why success must not be acknowledged.
var ErrNotCommitted = errors.New("global: accepted but not yet committed to the cluster")

// IntentSource is the read surface of the replicated intent store
// (implemented by cluster.IntentStore): categories of key -> record, plus
// the applied sequence number so refreshes can skip unchanged state.
type IntentSource interface {
	Keys(category string) []string
	Get(category, key string) json.RawMessage
	LastApplied() uint64
}

// NodeResolver turns a replicated node record back into a dialable Node
// handle on promotion (and for gossip probing of monitored nodes). The
// raw record is whatever AddNode serialized — NodeRecord for the built-in
// kinds.
type NodeResolver func(name string, rec json.RawMessage) (Node, error)

// NodeRecord is the replicated identity of one fleet member.
type NodeRecord struct {
	Name string `json:"name"`
	// URL is the node's REST base URL; empty for in-process nodes, whose
	// resolution needs a custom NodeResolver.
	URL string `json:"url,omitempty"`
}

// URLNode is implemented by node handles that can name their REST base
// URL (HTTPNode); it feeds the replicated NodeRecord so any replica can
// re-dial the node after promotion.
type URLNode interface {
	BaseURL() string
}

// BaseURL implements URLNode.
func (h *HTTPNode) BaseURL() string { return h.base }

// SetLeaderGate installs the leadership check consulted by every mutating
// entry point and by the reconcile loop. Nil (the default) means always
// allowed — a standalone orchestrator behaves exactly as before.
func (o *Orchestrator) SetLeaderGate(isLeader func() bool) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.leaderCheck = isLeader
}

// SetIntentRecorder installs the sink every accepted desired-state
// mutation is recorded in (the HA glue points it at cluster.Propose).
// The recorder must not block on replication: it stages the op and
// returns a commit wait, which the mutating entry points invoke after
// releasing the orchestrator lock — a slow or partitioned follower then
// delays only the caller's acknowledgement, not every other API request.
// A nil commit means nothing to wait for (test recorders, local stores).
func (o *Orchestrator) SetIntentRecorder(rec func(kind cluster.OpKind, key string, data json.RawMessage) (commit func() error, err error)) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.recorder = rec
}

// SetNodeResolver installs the handle factory used by RestoreIntent.
func (o *Orchestrator) SetNodeResolver(r NodeResolver) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.nodeResolver = r
}

// SetIntentSource installs the replicated store a follower refreshes its
// read-only fleet view from (each reconcile tick, when the store moved).
func (o *Orchestrator) SetIntentSource(src IntentSource) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.intentSource = src
}

// refreshFollower re-replays the intent store into a non-leader's
// bookkeeping so its reads track the leader's writes. Skipped while the
// store has not moved past the last replay.
func (o *Orchestrator) refreshFollower() {
	o.mu.Lock()
	src := o.intentSource
	seq := o.restoredSeq
	o.mu.Unlock()
	if src == nil || src.LastApplied() == seq {
		return
	}
	if err := o.RestoreIntent(src); err != nil {
		o.cfg.Logf("global: follower intent refresh: %v", err)
	}
}

// leaderErr returns ErrNotLeader when an HA gate is installed and this
// replica does not currently hold the lease. Callers hold o.mu.
func (o *Orchestrator) leaderErr() error {
	if o.leaderCheck != nil && !o.leaderCheck() {
		return ErrNotLeader
	}
	return nil
}

// IsLeader reports whether this orchestrator may mutate desired state:
// true for a standalone orchestrator, the cluster lease check under HA.
func (o *Orchestrator) IsLeader() bool {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.leaderErr() == nil
}

// mutate is the shape of every desired-state mutation: under the lock, and
// only on the leader, run body; stage the record of every graph it changed;
// then, with the lock released, wait for the staged ops to commit.
func (o *Orchestrator) mutate(body func() error) error {
	o.mu.Lock()
	err := o.leaderErr()
	if err == nil {
		err = body()
		o.stageRecords() // also after a failure: body may have got part-way
	}
	o.mu.Unlock()
	if err != nil {
		return err
	}
	return o.flushIntent()
}

// propose stages one op in the replicated log and queues its commit wait
// (or the staging failure) for flushIntent. A nil data is a removal. It
// reports whether the op was staged. Callers hold o.mu.
func (o *Orchestrator) propose(kind cluster.OpKind, key string, data json.RawMessage) bool {
	if o.recorder == nil {
		return true
	}
	commit, err := o.recorder(kind, key, data)
	if err != nil {
		o.cfg.Logf("global: recording %s intent for %q: %v", kind, key, err)
		o.pendingCommits = append(o.pendingCommits, func() error { return err })
		return false
	}
	if commit != nil {
		o.pendingCommits = append(o.pendingCommits, commit)
	}
	return true
}

// stageRecords proposes the current record of every graph in the unrecorded
// set — its deployment, or a removal once it is gone — in id order. A graph
// whose proposal fails to stage stays in the set for the next mutation or
// reconcile pass to retry; nothing else is ever re-proposed, so a quiet pass
// proposes nothing. Callers hold o.mu.
func (o *Orchestrator) stageRecords() {
	if len(o.unrecorded) == 0 {
		return
	}
	for _, id := range sortedKeys(o.unrecorded) {
		kind := o.unrecorded[id]
		var data json.RawMessage
		if dep, live := o.graphs[id]; live {
			var err error
			if data, err = json.Marshal(dep); err != nil {
				o.cfg.Logf("global: marshaling intent record for %q: %v", id, err)
				continue
			}
		} else {
			kind = cluster.OpUndeploy
		}
		if o.propose(kind, id, data) {
			delete(o.unrecorded, id)
		}
	}
}

// flushIntent drains the commit waits staged by propose and
// blocks until every one of them resolves. Mutating entry points call it
// after releasing o.mu, so the quorum round trip never serializes the
// rest of the API, and its error — wrapped in ErrNotCommitted — is what
// keeps an acknowledged write from silently vanishing on failover.
func (o *Orchestrator) flushIntent() error {
	o.mu.Lock()
	commits := o.pendingCommits
	o.pendingCommits = nil
	o.mu.Unlock()
	var errs []error
	for _, commit := range commits {
		if err := commit(); err != nil {
			errs = append(errs, err)
		}
	}
	if err := errors.Join(errs...); err != nil {
		return fmt.Errorf("%w: %w", ErrNotCommitted, err)
	}
	return nil
}

// nodeRecordFor derives a node's replicated identity from its handle.
func nodeRecordFor(n Node) NodeRecord {
	rec := NodeRecord{Name: n.Name()}
	if u, ok := n.(URLNode); ok {
		rec.URL = u.BaseURL()
	}
	return rec
}

// defaultNodeResolver re-dials nodes by their recorded REST URL.
func defaultNodeResolver(name string, raw json.RawMessage) (Node, error) {
	var rec NodeRecord
	if err := json.Unmarshal(raw, &rec); err != nil {
		return nil, fmt.Errorf("global: node record for %q: %w", name, err)
	}
	if rec.URL == "" {
		return nil, fmt.Errorf("global: node record for %q has no URL (install a NodeResolver)", name)
	}
	return NewHTTPNode(name, rec.URL, nil), nil
}

// RestoreIntent rebuilds the orchestrator's entire desired-state
// bookkeeping from the replicated intent store — the promotion replay.
// Node handles already registered under the same name are kept (a
// re-promoted original leader reuses its live handles); missing ones are
// resolved through the NodeResolver without probing (a node may be
// momentarily down; desired state says it should exist, and the next
// reconcile pass probes it). No node RPC is issued: the running fleet is
// adopted as-is by the first reconcile pass's drift repair.
func (o *Orchestrator) RestoreIntent(src IntentSource) error {
	// Capture the sequence first: ops landing during the read are
	// re-replayed by the next refresh rather than silently skipped.
	seq := src.LastApplied()
	o.mu.Lock()
	defer o.mu.Unlock()
	o.restoredSeq = seq

	resolver := o.nodeResolver
	if resolver == nil {
		resolver = defaultNodeResolver
	}

	members := make(map[string]*member)
	var errs []error
	for _, name := range src.Keys("nodes") {
		raw := src.Get("nodes", name)
		if m, ok := o.members[name]; ok {
			members[name] = m
			continue
		}
		n, err := resolver(name, raw)
		if err != nil {
			errs = append(errs, err)
			continue
		}
		members[name] = &member{node: n, alive: true, last: Status{Name: name}}
	}

	var links []Link
	for _, key := range src.Keys("links") {
		var l Link
		if err := json.Unmarshal(src.Get("links", key), &l); err != nil {
			errs = append(errs, fmt.Errorf("global: link record %q: %w", key, err))
			continue
		}
		links = append(links, l)
	}

	alloc := newVLANAlloc()
	graphs := make(map[string]*deployment)
	for _, id := range src.Keys("graphs") {
		dep := new(deployment)
		if err := json.Unmarshal(src.Get("graphs", id), dep); err != nil {
			errs = append(errs, fmt.Errorf("global: graph record %q: %w", id, err))
			continue
		}
		if dep.Desired == nil {
			errs = append(errs, fmt.Errorf("global: graph record %q has no desired graph", id))
			continue
		}
		if dep.Subs == nil {
			dep.Subs = make(map[string]*nffg.Graph)
		}
		reserveStitchVLANs(alloc, dep.Stitches)
		graphs[id] = dep
	}

	o.members = members
	o.links = links
	o.graphs = graphs
	o.alloc = alloc
	o.pending = make(map[string]map[string]bool)
	o.parked = nil
	// Every restored deployment is, by construction, what the log holds.
	o.unrecorded = make(map[string]cluster.OpKind)
	// Commit waits staged under a previous leadership are settled (or
	// moot) by the time a replay runs; don't let them fail a future flush.
	o.pendingCommits = nil
	o.cfg.Logf("global: restored intent: %d node(s), %d link(s), %d graph(s)",
		len(members), len(links), len(graphs))
	return errors.Join(errs...)
}

// SetNodeLiveness applies an externally detected node state change (the
// gossip failure detector) immediately, without waiting for the next
// reconcile probe. Unknown nodes are ignored.
func (o *Orchestrator) SetNodeLiveness(name string, alive bool) {
	o.mu.Lock()
	defer o.mu.Unlock()
	m, ok := o.members[name]
	if !ok || m.alive == alive {
		return
	}
	m.alive = alive
	if alive {
		o.cfg.Logf("global: node %q back (gossip)", name)
		o.journal.Recordf(telemetry.EventNodeBack, name, "", "gossip detector")
	} else {
		o.cfg.Logf("global: node %q dead (gossip)", name)
		o.journal.Recordf(telemetry.EventNodeDead, name, "", "gossip detector")
	}
}

// KickReconcile asks the reconcile loop for an immediate pass (no-op when
// the loop is not running). The gossip path uses it so failure recovery
// starts within the failure-detection latency, not a reconcile period.
func (o *Orchestrator) KickReconcile() {
	select {
	case o.kickCh <- struct{}{}:
	default:
	}
}
