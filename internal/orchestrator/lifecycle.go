package orchestrator

import (
	"fmt"
	"strconv"
	"sync"
	"time"

	"repro/internal/compute"
	"repro/internal/telemetry"
)

// NFState is one step of the per-NF lifecycle state machine:
//
//	pending → starting → attaching → running → draining → stopped
//
// with a failed edge out of every pre-running state. The orchestrator
// advances states individually per NF, so the NFs of one graph move through
// their lifecycles concurrently and a failure identifies exactly which NF —
// and which phase — broke.
type NFState string

// Lifecycle states.
const (
	StatePending   NFState = "pending"   // scheduled, not yet handed to a driver
	StateStarting  NFState = "starting"  // driver.Start in flight
	StateAttaching NFState = "attaching" // ports being wired to the LSI
	StateRunning   NFState = "running"   // attached and steered
	StateDraining  NFState = "draining"  // detached from steering, finishing in-flight traffic
	StateStopped   NFState = "stopped"   // instance stopped and detached
	StateFailed    NFState = "failed"    // start or attach failed
)

// stateOrder backs the compact numeric encoding used by the atomic state
// field and the un_nf_state gauge.
var stateOrder = []NFState{
	StatePending, StateStarting, StateAttaching, StateRunning,
	StateDraining, StateStopped, StateFailed,
}

// Value returns the state's numeric gauge encoding (its index in the
// lifecycle order; failed is the largest).
func (s NFState) Value() float64 { return float64(s.index()) }

func (s NFState) index() int32 {
	for i, st := range stateOrder {
		if st == s {
			return int32(i)
		}
	}
	return 0
}

// State returns the attachment's current lifecycle state.
func (a *nfAttachment) State() NFState {
	return stateOrder[a.state.Load()]
}

// setState advances one attachment's lifecycle state and journals the
// transition. Safe without the orchestrator lock: the state field is atomic
// and the journal synchronizes internally, so concurrent starts report
// their progress in real time.
func (o *Orchestrator) setState(graphID, nfID string, att *nfAttachment, to NFState) {
	from := stateOrder[att.state.Swap(to.index())]
	if from == to {
		return
	}
	o.journal.Recordf(telemetry.EventNFState, o.cfg.NodeName, graphID,
		fmt.Sprintf("%s: %s -> %s", nfID, from, to))
}

// graphLock is one graph's operation lock plus the number of operations
// holding or waiting on it, so the registry entry can be dropped once the
// last one leaves (a daemon deploying unique graph ids must not accumulate
// locks forever).
type graphLock struct {
	mu   sync.Mutex
	refs int
}

// lockGraph acquires the per-graph operation lock. Every operation that
// changes a graph holds it for its whole run, so operations on one graph
// serialize while different graphs proceed in parallel; the shared
// orchestrator mutex is only held for the bookkeeping phases in between.
// Pair with unlockGraph.
func (o *Orchestrator) lockGraph(id string) *graphLock {
	o.glmu.Lock()
	l := o.gLocks[id]
	if l == nil {
		l = &graphLock{}
		o.gLocks[id] = l
	}
	l.refs++
	o.glmu.Unlock()
	l.mu.Lock()
	return l
}

// unlockGraph releases the per-graph operation lock and retires the
// registry entry once no operation holds or waits on it.
func (o *Orchestrator) unlockGraph(id string, l *graphLock) {
	l.mu.Unlock()
	o.glmu.Lock()
	if l.refs--; l.refs == 0 {
		delete(o.gLocks, id)
	}
	o.glmu.Unlock()
}

// DefaultMaxParallelStarts bounds how many NF instances of one graph boot
// concurrently when the config does not say.
const DefaultMaxParallelStarts = 8

// DefaultDrainTimeout bounds how long a hot-swap waits for the outgoing
// instance to finish in-flight traffic.
const DefaultDrainTimeout = 250 * time.Millisecond

// launch is the only way an instance comes up: it boots one instance per
// placement and wires each to the graph. The first active instances rest in
// the running state; the others are standbys and idle in attaching (wired,
// never steered at). It has two halves for a reason. Starts are the slow
// phase (image pull, environment boot) and drivers are concurrency-safe by
// contract, so they run concurrently, bounded by cfg.MaxParallelStarts,
// with o.mu released; attaching touches both switches and the node's
// bookkeeping, so it runs under o.mu. Generated instance names are
// node-unique (the resource ledger and the image store key by them): an
// instance replacing another of the same NF never collides with it. On any
// failure every instance of the batch is stopped and unwired and the first
// error is returned — the graph never sees a half-launched batch. Callers
// hold the graph's operation lock and o.mu.
func (o *Orchestrator) launch(d *DeployedGraph, pls []Placement, active int) ([]*nfAttachment, error) {
	if len(pls) == 0 {
		return nil, nil
	}
	graphID := d.Graph.ID
	limit := o.cfg.MaxParallelStarts
	if limit <= 0 {
		limit = DefaultMaxParallelStarts
	}
	atts := make([]*nfAttachment, len(pls))
	errs := make([]error, len(pls))
	sem := make(chan struct{}, limit)
	var wg sync.WaitGroup
	boot := func(i int) {
		defer wg.Done()
		sem <- struct{}{}
		defer func() { <-sem }()
		pl, att := pls[i], atts[i]
		o.setState(graphID, pl.NF.ID, att, StateStarting)
		inst, err := pl.Driver.Start(compute.StartRequest{
			InstanceName: graphID + "." + pl.NF.ID + "#" + strconv.FormatUint(o.instGen.Add(1), 10),
			GraphID:      graphID,
			Template:     pl.Template,
			Config:       pl.NF.Config,
		})
		if err != nil {
			o.setState(graphID, pl.NF.ID, att, StateFailed)
			errs[i] = fmt.Errorf("orchestrator: starting %q as %s: %w", pl.NF.ID, pl.Technology, err)
			return
		}
		att.inst = inst
	}
	o.mu.Unlock()
	for i := range pls {
		atts[i] = &nfAttachment{}
		wg.Add(1)
		if i < len(pls)-1 {
			go boot(i)
		} else {
			boot(i) // the caller's share: a batch of one costs no goroutine handoff
		}
	}
	wg.Wait()
	o.mu.Lock()
	var err error
	for _, e := range errs {
		if e != nil {
			err = e
			break
		}
	}
	for i := 0; err == nil && i < len(atts); i++ {
		o.setState(graphID, pls[i].NF.ID, atts[i], StateAttaching)
		if aerr := o.attachNF(d, atts[i]); aerr != nil {
			o.setState(graphID, pls[i].NF.ID, atts[i], StateFailed)
			err = fmt.Errorf("orchestrator: attaching %q: %w", pls[i].NF.ID, aerr)
		}
	}
	if err != nil {
		for i, att := range atts {
			if att.inst == nil {
				continue
			}
			if att.State() != StateFailed {
				o.setState(graphID, pls[i].NF.ID, att, StateStopped)
			}
			o.unwire(d, att)
		}
		return nil, err
	}
	for i, att := range atts {
		if i < active {
			o.setState(graphID, pls[i].NF.ID, att, StateRunning)
		}
		role := ""
		if i >= active {
			role = " (standby)"
		}
		o.metrics.nfStarts.Inc()
		o.journal.Recordf(telemetry.EventNFStart, o.cfg.NodeName, graphID,
			fmt.Sprintf("%s as %s%s", pls[i].NF.ID, pls[i].Technology, role))
	}
	return atts, nil
}

// drain waits, with o.mu released, until the outgoing instances' counters
// stop moving: with synchronous frame delivery, a stable rx/tx pair over
// several samples means no sender goroutine is still inside the instance.
// Bounded by cfg.DrainTimeout per instance. Drivers without drain support
// (shared native NFs) release immediately, and a crashed instance holds no
// packet to wait for. Callers hold o.mu.
func (o *Orchestrator) drain(outgoing []*nfAttachment) {
	o.mu.Unlock()
	defer o.mu.Lock()
	timeout := o.cfg.DrainTimeout
	if timeout <= 0 {
		timeout = DefaultDrainTimeout
	}
	for _, att := range outgoing {
		drv, ok := o.cfg.Compute.Driver(att.inst.Technology)
		rt := att.inst.Runtime
		if !ok || !drv.Caps().SupportsDrain || !rt.Running() {
			continue
		}
		deadline := time.Now().Add(timeout)
		last := rt.Stats()
		for stable := 0; stable < 3 && time.Now().Before(deadline); {
			time.Sleep(2 * time.Millisecond)
			if cur := rt.Stats(); cur == last {
				stable++
			} else {
				stable, last = 0, cur
			}
		}
	}
}
