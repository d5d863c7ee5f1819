package telemetry

import (
	"sort"
	"sync"
	"time"
)

// Event types recorded by the node and global orchestrators. The journal
// accepts arbitrary strings; these constants name the built-in vocabulary.
const (
	EventDeploy    = "deploy"          // graph instantiated on a node
	EventUpdate    = "update"          // graph updated in place
	EventUndeploy  = "undeploy"        // graph removed
	EventNFStart   = "nf-start"        // one NF instance started
	EventNFStop    = "nf-stop"         // one NF instance stopped
	EventFlowMod   = "flow-mod"        // steering rules (re)programmed on an LSI
	EventNodeDead  = "node-dead"       // fleet member failed its health probe
	EventNodeBack  = "node-back"       // fleet member answering again
	EventResched   = "reschedule"      // graph moved off a dead/withdrawn node
	EventRepair    = "drift-repair"    // lost or diverged subgraph reconverged
	EventRetire    = "retire"          // deferred subgraph removal completed
	EventNFState   = "nf-state"        // one NF lifecycle state transition
	EventNFConfig  = "nf-config"       // changed NF reconfigured in place or restarted
	EventReflavor  = "reflavor"        // one NF hot-swapped to another flavor
	EventScale     = "scale"           // one NF's replica set reshaped
	EventMigrate   = "state-migrate"   // per-flow state moved between replicas
	EventPromote   = "standby-promote" // standby instance/node took over the active role
	EventOutage    = "outage"          // fault detected on a redundancy-protected NF or node
	EventStateSync = "state-sync"      // flow state replicated to a standby
	EventLinkDown  = "link-down"       // inter-node link severed (withdrawn from stitching)

	// The cluster-layer event (internal/cluster): HA control-plane
	// leadership changes.
	EventLeaderElected = "leader-elected" // a replica won an election (or this replica adopted a new leader)
)

// Event is one structured journal entry.
type Event struct {
	// Seq orders events within one journal; gaps mean the ring dropped
	// entries between two reads.
	Seq uint64 `json:"seq"`
	// Time is the wall-clock event time.
	Time time.Time `json:"time"`
	// Type is the event kind (see the Event* constants).
	Type string `json:"type"`
	// Node names the Universal Node involved, when known.
	Node string `json:"node,omitempty"`
	// Graph names the NF-FG involved, when any.
	Graph string `json:"graph,omitempty"`
	// Detail is a free-form human-readable amplification.
	Detail string `json:"detail,omitempty"`
}

// Journal is a bounded in-memory ring of events: cheap enough to record
// control-plane activity unconditionally, bounded so an unobserved node
// cannot grow without limit, and grown by doubling up to its depth, so a
// quiet journal holds little. The zero value is unusable; use NewJournal.
type Journal struct {
	mu    sync.Mutex
	buf   []Event // oldest first until len reaches depth, then a ring
	depth int
	next  int    // ring write position once full, 0 until then
	seq   uint64 // total events ever recorded
}

// DefaultJournalDepth is the event capacity used when none is given.
const DefaultJournalDepth = 1024

// NewJournal builds a journal holding up to depth events (oldest evicted
// first). Non-positive depth uses DefaultJournalDepth.
func NewJournal(depth int) *Journal {
	if depth <= 0 {
		depth = DefaultJournalDepth
	}
	return &Journal{depth: depth}
}

// Record appends one event, stamping sequence and (if zero) time.
func (j *Journal) Record(ev Event) {
	if ev.Time.IsZero() {
		ev.Time = time.Now()
	}
	j.mu.Lock()
	j.seq++
	ev.Seq = j.seq
	if len(j.buf) < j.depth {
		if len(j.buf) == cap(j.buf) {
			j.grow()
		}
		j.buf = append(j.buf, ev)
	} else {
		j.buf[j.next] = ev
		j.next = (j.next + 1) % j.depth
	}
	j.mu.Unlock()
}

// grow doubles the ring's room, up to the depth.
func (j *Journal) grow() {
	grown := make([]Event, len(j.buf), min(max(2*cap(j.buf), 4), j.depth))
	copy(grown, j.buf)
	j.buf = grown
}

// Recordf is shorthand for recording a typed event.
func (j *Journal) Recordf(typ, node, graph, detail string) {
	j.Record(Event{Type: typ, Node: node, Graph: graph, Detail: detail})
}

// Events returns the retained events, oldest first.
func (j *Journal) Events() []Event {
	j.mu.Lock()
	defer j.mu.Unlock()
	out := make([]Event, 0, len(j.buf))
	return append(append(out, j.buf[j.next:]...), j.buf[:j.next]...)
}

// Total returns how many events were ever recorded; Total minus the number
// of retained events is how many the ring has dropped.
func (j *Journal) Total() uint64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.seq
}

// MergeEvents interleaves several event streams by time (sequence breaking
// ties), for fleet-wide views assembled from per-node journals.
func MergeEvents(streams ...[]Event) []Event {
	var out []Event
	for _, s := range streams {
		out = append(out, s...)
	}
	sort.SliceStable(out, func(i, j int) bool {
		if !out[i].Time.Equal(out[j].Time) {
			return out[i].Time.Before(out[j].Time)
		}
		return out[i].Seq < out[j].Seq
	})
	return out
}
