package global

import (
	"encoding/json"
	"sync"

	"repro/internal/cluster"
)

// BuildHA wires an orchestrator into a cluster replica: desired-state
// mutations are gated on the leader lease and recorded in the
// replicated intent log, cluster-detected node transitions feed the
// reconcile loop, and promotion replays the intent store into the
// orchestrator before the first reconcile pass adopts the running fleet.
// The caller owns both lifecycles: Start the cluster and the orchestrator
// after this returns, Close both on shutdown.
//
// A nil resolver uses the default (re-dial nodes by the URL in their
// replicated NodeRecord); the chaos harness injects one that hands back
// in-process handles.
func BuildHA(o *Orchestrator, copts cluster.Options, resolver NodeResolver) (*cluster.Cluster, error) {
	if resolver == nil {
		resolver = defaultNodeResolver
	}
	o.SetNodeResolver(resolver)
	if copts.Journal == nil {
		copts.Journal = o.Journal()
	}
	if copts.Logf == nil {
		copts.Logf = o.cfg.Logf
	}

	// Gossip probes monitored nodes through resolved handles, cached per
	// (id, record) so a re-added node with a new URL gets a fresh dial.
	var pmu sync.Mutex
	probes := make(map[string]struct {
		rec  string
		node Node
	})
	copts.NodeProber = func(id string, rec json.RawMessage) error {
		pmu.Lock()
		cached, ok := probes[id]
		pmu.Unlock()
		if !ok || cached.rec != string(rec) {
			n, err := resolver(id, rec)
			if err != nil {
				return err
			}
			cached = struct {
				rec  string
				node Node
			}{rec: string(rec), node: n}
			pmu.Lock()
			probes[id] = cached
			pmu.Unlock()
		}
		_, err := cached.node.Status()
		return err
	}

	var c *cluster.Cluster
	copts.OnPromote = func(term uint64) {
		// Deterministic replay: rebuild the fleet bookkeeping from the
		// replicated intent store, then reconcile to adopt the running
		// datapath (async — OnPromote is called from the election path).
		if err := o.RestoreIntent(c.Store()); err != nil {
			o.cfg.Logf("global: intent replay on promotion (term %d): %v", term, err)
		}
		go o.ReconcileOnce()
	}
	copts.OnNodeState = func(id string, alive bool) {
		o.SetNodeLiveness(id, alive)
		if !alive {
			// Start rescheduling within the detection latency, not a
			// reconcile period later.
			o.KickReconcile()
		}
	}

	c, err := cluster.New(copts)
	if err != nil {
		return nil, err
	}
	o.SetLeaderGate(c.IsLeader)
	o.SetIntentSource(c.Store())
	o.SetIntentRecorder(func(kind cluster.OpKind, key string, data json.RawMessage) (func() error, error) {
		// Two-phase: Propose appends + applies locally without blocking
		// (called under o.mu), the returned wait blocks for quorum commit
		// and is invoked by flushIntent after the lock is released.
		seq, err := c.Propose(kind, key, data)
		if err != nil {
			return nil, err
		}
		return func() error { return c.WaitCommit(seq) }, nil
	})
	o.Metrics().Register(c)
	return c, nil
}
