package global

import (
	"encoding/json"
	"errors"
	"fmt"
	"slices"
	"strings"

	"repro/internal/cluster"
	"repro/internal/jsonw"
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
// (implemented by cluster.IntentStore): categories of key -> record, the
// applied sequence number, and which records the ops after a given
// sequence touched, so a follower's refresh re-reads only those.
type IntentSource interface {
	Keys(category string) []string
	Get(category, key string) json.RawMessage
	LastApplied() uint64
	ChangedSince(seq uint64) (changes []cluster.Change, through uint64, ok bool)
}

// NodeResolver turns a replicated node record back into a dialable Node
// handle on promotion and on a follower's refresh. The
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

// BaseURL implements Node.
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

// refreshFollower brings a non-leader's bookkeeping up to the intent store
// so its reads track the leader's writes. It re-reads and decodes only the
// records the ops since its last refresh wrote or removed. Only when the
// store cannot name them (after a snapshot install, or once it has dropped
// the tombstones of more removed records than it keeps) does it replay the
// whole store.
func (o *Orchestrator) refreshFollower() {
	o.mu.Lock()
	defer o.mu.Unlock()
	src := o.intentSource
	if src == nil {
		return
	}
	changes, through, ok := src.ChangedSince(o.restoredSeq)
	if !ok {
		if err := o.replayLocked(src, through); err != nil {
			o.cfg.Logf("global: follower intent refresh: %v", err)
		}
		return
	}
	resolver := o.resolverLocked()
	for _, c := range changes {
		if err := o.applyChangeLocked(src, resolver, c); err != nil {
			o.cfg.Logf("global: follower intent refresh: %v", err)
		}
	}
	o.restoredSeq = through
}

// applyChangeLocked brings one record of the follower's view up to the
// store: a graph's deployment with its stitch VLANs, a fleet member or a
// link, each decoded as the promotion replay decodes it. A record the
// store no longer holds is removed. Callers hold o.mu.
func (o *Orchestrator) applyChangeLocked(src IntentSource, resolver NodeResolver, c cluster.Change) error {
	raw := src.Get(c.Category, c.Key)
	switch c.Category {
	case "graphs":
		if old, ok := o.graphs[c.Key]; ok {
			for _, st := range old.Stitches {
				releaseHops(o.alloc, st.Hops)
			}
			delete(o.graphs, c.Key)
		}
		if raw == nil {
			return nil
		}
		dep, err := decodeRecord(c.Key, raw)
		if err != nil {
			return err
		}
		reserveStitchVLANs(o.alloc, dep.Stitches)
		o.graphs[c.Key] = dep
	case "nodes":
		if raw == nil {
			delete(o.members, c.Key)
			return nil
		}
		if _, ok := o.members[c.Key]; ok {
			return nil
		}
		m, err := restoreMember(resolver, c.Key, raw)
		if err != nil {
			return err
		}
		o.members[c.Key] = m
	case "links":
		i := slices.IndexFunc(o.links, func(l Link) bool { return l.key() == c.Key })
		if raw == nil {
			if i >= 0 {
				o.links = slices.Delete(o.links, i, i+1)
			}
			return nil
		}
		l, err := decodeLink(c.Key, raw)
		if err != nil {
			return err
		}
		if i >= 0 {
			o.links[i] = l
			return nil
		}
		// In key order, as the replay lists them.
		i, _ = slices.BinarySearchFunc(o.links, c.Key, func(l Link, key string) int { return strings.Compare(l.key(), key) })
		o.links = slices.Insert(o.links, i, l)
	}
	return nil
}

// resolverLocked returns the installed NodeResolver or the default one.
// Callers hold o.mu.
func (o *Orchestrator) resolverLocked() NodeResolver {
	if o.nodeResolver == nil {
		return defaultNodeResolver
	}
	return o.nodeResolver
}

// restoreMember resolves a replicated node record into a fleet member,
// without probing it: desired state says it exists, and the next
// reconcile pass or placement, whichever comes first, probes it.
func restoreMember(resolver NodeResolver, name string, raw json.RawMessage) (*member, error) {
	n, err := resolver(name, raw)
	if err != nil {
		return nil, err
	}
	return &member{node: n, alive: true, last: Status{Name: name}}, nil
}

// decodeLink decodes one replicated link record by linkSchema: strictly,
// as every record is read.
func decodeLink(key string, raw json.RawMessage) (Link, error) {
	var l Link
	if err := jsonw.Decode(raw, linkSchema, &l); err != nil {
		return Link{}, fmt.Errorf("global: link record %q: %w", key, err)
	}
	return l, nil
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
			if data, err = encodeRecord(dep); err != nil {
				o.cfg.Logf("global: encoding intent record for %q: %v", id, err)
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
	// re-read by the next refresh rather than silently skipped.
	seq := src.LastApplied()
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.replayLocked(src, seq)
}

// replayLocked is RestoreIntent's replay of the store as of sequence seq, or
// later: every record applied as a follower applies a change, onto empty
// bookkeeping that keeps only the node handles already registered. Callers
// hold o.mu.
func (o *Orchestrator) replayLocked(src IntentSource, seq uint64) error {
	o.restoredSeq = seq
	resolver := o.resolverLocked()
	held := o.members
	o.members, o.links, o.graphs, o.alloc = make(map[string]*member), nil, make(map[string]*deployment), newVLANAlloc()
	var errs []error
	for _, category := range []string{"nodes", "links", "graphs"} {
		for _, key := range src.Keys(category) {
			if m, ok := held[key]; ok && category == "nodes" {
				m.stale() // another leader may have changed what it runs
				o.members[key] = m
			} else if err := o.applyChangeLocked(src, resolver, cluster.Change{Category: category, Key: key}); err != nil {
				errs = append(errs, err)
			}
		}
	}
	o.pending = make(map[string]map[string]bool)
	o.parked = nil
	// Every restored deployment is, by construction, what the log holds.
	o.unrecorded = make(map[string]cluster.OpKind)
	// Commit waits staged under a previous leadership are settled (or
	// moot) by the time a replay runs; don't let them fail a future flush.
	o.pendingCommits = nil
	o.cfg.Logf("global: restored intent: %d node(s), %d link(s), %d graph(s)",
		len(o.members), len(o.links), len(o.graphs))
	return errors.Join(errs...)
}
