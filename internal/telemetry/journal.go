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

// Render builds the Detail of an event recorded with RecordNF from its NF
// ID and two codes. It runs when the journal is read, never when the event
// is recorded, so it must be a pure function of its arguments.
type Render func(nf string, a, b uint8) string

// entry is one ring slot: an event as recorded, 88 bytes. Its Detail is
// text itself, or render(text, a, b) for an event recorded with RecordNF;
// its sequence number is implied by its place in the ring.
type entry struct {
	at                     int64 // Unix nanoseconds
	typ, node, graph, text string
	render                 Render
	a, b                   uint8
}

// Journal is a bounded in-memory ring of events: cheap enough to record
// control-plane activity unconditionally, bounded so an unobserved node
// cannot grow without limit, and grown by doubling up to its depth, so a
// quiet journal holds little. The zero value is unusable; use NewJournal.
type Journal struct {
	mu    sync.Mutex
	buf   []entry // oldest first until len reaches depth, then a ring
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
	j.put(entry{at: ev.Time.UnixNano(), typ: ev.Type, node: ev.Node, graph: ev.Graph, text: ev.Detail})
}

// RecordNF records an event about the NF nf, now, whose Detail is
// render(nf, a, b), built only when the event is read: the deploy path
// formats nothing.
func (j *Journal) RecordNF(typ, node, graph string, render Render, nf string, a, b uint8) {
	j.put(entry{at: time.Now().UnixNano(), typ: typ, node: node, graph: graph, text: nf, render: render, a: a, b: b})
}

func (j *Journal) put(e entry) {
	j.mu.Lock()
	j.seq++
	if len(j.buf) < j.depth {
		if len(j.buf) == cap(j.buf) {
			j.grow()
		}
		j.buf = append(j.buf, e)
	} else {
		j.buf[j.next] = e
		j.next = (j.next + 1) % j.depth
	}
	j.mu.Unlock()
}

// grow doubles the ring's room, up to the depth.
func (j *Journal) grow() {
	grown := make([]entry, len(j.buf), min(max(2*cap(j.buf), 4), j.depth))
	copy(grown, j.buf)
	j.buf = grown
}

// Recordf is shorthand for recording a typed event.
func (j *Journal) Recordf(typ, node, graph, detail string) {
	j.Record(Event{Type: typ, Node: node, Graph: graph, Detail: detail})
}

// Events returns the retained events, oldest first, rendering each.
func (j *Journal) Events() []Event {
	j.mu.Lock()
	defer j.mu.Unlock()
	out := make([]Event, len(j.buf))
	first := j.seq - uint64(len(j.buf)) + 1
	for i := range out {
		e := &j.buf[(j.next+i)%len(j.buf)]
		out[i] = Event{Seq: first + uint64(i), Time: time.Unix(0, e.at), Type: e.typ, Node: e.node, Graph: e.graph, Detail: e.text}
		if e.render != nil {
			out[i].Detail = e.render(e.text, e.a, e.b)
		}
	}
	return out
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
