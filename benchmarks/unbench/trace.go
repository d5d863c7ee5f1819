package main

import (
	"bufio"
	"encoding/json"
	"os"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/cluster"
	"repro/internal/global"
	"repro/internal/nffg"
)

// span is one traced interval. Spans of one op share Trace; Parent is the
// span that caused this one (0 for a root). N is the number of layer
// crossings a replay span folds into one interval (0 when it is one call).
// Background marks a span that started while no op was open (heartbeats,
// gossip): it belongs to no trace.
type span struct {
	Trace      uint32 `json:"trace"`
	Span       uint32 `json:"span"`
	Parent     uint32 `json:"parent"`
	Name       string `json:"name"`
	Start      int64  `json:"start_ns"`
	End        int64  `json:"end_ns"`
	N          int    `json:"n,omitempty"`
	Background bool   `json:"background,omitempty"`
}

// tracer records spans into a preallocated slice and writes them out when
// the benchmark ends. It is driven from the benchmark's own files only: the
// boundaries it can see are the ones the benchmark owns (the call into the
// system, the cable between two nodes, the node and cluster RPC handles it
// hands to the control plane). One op is open at a time (the load is one
// closed-loop goroutine); child spans may come from goroutines the program
// starts, hence the lock.
type tracer struct {
	// off suspends recording: the decorators stay in place but cost one
	// atomic load, so the same system serves the untraced reference ops.
	off atomic.Bool

	mu     sync.Mutex
	spans  []span
	nextID uint32
	trace  uint32 // id of the trace in progress
	open   uint32 // span new children attach to; 0 when no op is open
}

// reserve preallocates room for n more spans, so recording does not grow
// the slab in the middle of an op.
func (t *tracer) reserve(n int) {
	t.mu.Lock()
	t.spans = slices.Grow(t.spans, n)
	t.mu.Unlock()
}

func noop() {}

// root opens a new trace with a top-level span and returns its closer.
// Until it is closed, spans recorded by child() attach to it.
func (t *tracer) root(name string) (end func()) {
	if t.off.Load() {
		return noop
	}
	t.mu.Lock()
	t.trace++
	end = t.topLocked(name)
	t.mu.Unlock()
	return end
}

// top opens another top-level span in the current trace (the layer replay
// that follows an op's real span).
func (t *tracer) top(name string) (end func()) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.topLocked(name)
}

func (t *tracer) topLocked(name string) func() {
	t.nextID++
	id, trace := t.nextID, t.trace
	t.open = id
	start := nanotime()
	return func() {
		stop := nanotime()
		t.mu.Lock()
		t.open = 0
		t.spans = append(t.spans, span{Trace: trace, Span: id, Name: name, Start: start, End: stop})
		t.mu.Unlock()
	}
}

// child records one interval under the open top-level span; with none open
// it is a background span.
func (t *tracer) child(name string, n int) (end func()) {
	if t.off.Load() {
		return noop
	}
	t.mu.Lock()
	t.nextID++
	s := span{Trace: t.trace, Span: t.nextID, Parent: t.open, Name: name, N: n}
	if t.open == 0 {
		s.Trace, s.Background = 0, true
	}
	t.mu.Unlock()
	s.Start = nanotime()
	return func() {
		s.End = nanotime()
		t.mu.Lock()
		t.spans = append(t.spans, s)
		t.mu.Unlock()
	}
}

// settle reclassifies children that outlived the span they started under as
// background: a heartbeat that happened to start during a request was not
// caused by it. After it, every child lies inside its parent.
func (t *tracer) settle() {
	t.mu.Lock()
	defer t.mu.Unlock()
	tops := make(map[uint32]span, len(t.spans)/4)
	for _, s := range t.spans {
		if s.Parent == 0 && !s.Background {
			tops[s.Span] = s
		}
	}
	for i := range t.spans {
		s := &t.spans[i]
		if s.Parent == 0 {
			continue
		}
		if p, ok := tops[s.Parent]; !ok || s.Start < p.Start || s.End > p.End {
			s.Trace, s.Parent, s.Background = 0, 0, true
		}
	}
}

// write dumps the spans as JSON lines.
func (t *tracer) write(path string) error {
	t.settle()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for i := range t.spans {
		if err = enc.Encode(&t.spans[i]); err != nil {
			break
		}
	}
	t.mu.Unlock()
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// opView is one trace folded for analysis: its top-level spans by name and,
// per top-level span, the wall time its children of each name cover.
type opView struct {
	tops  map[string]span
	cover map[string]map[string]int64 // top name -> child name -> ns covered
	self  map[string]int64            // top name -> duration minus the part children cover
}

// fold groups the recorded spans by trace.
func (t *tracer) fold() []opView {
	t.settle()
	t.mu.Lock()
	defer t.mu.Unlock()
	type key struct{ trace, parent uint32 }
	kids := map[key][]span{}
	var tops []span
	for _, s := range t.spans {
		switch {
		case s.Background:
		case s.Parent == 0:
			tops = append(tops, s)
		default:
			kids[key{s.Trace, s.Parent}] = append(kids[key{s.Trace, s.Parent}], s)
		}
	}
	byTrace := map[uint32]*opView{}
	var order []uint32
	for _, top := range tops {
		v := byTrace[top.Trace]
		if v == nil {
			v = &opView{tops: map[string]span{}, cover: map[string]map[string]int64{}, self: map[string]int64{}}
			byTrace[top.Trace] = v
			order = append(order, top.Trace)
		}
		v.tops[top.Name] = top
		children := kids[key{top.Trace, top.Span}]
		byName := map[string][]span{}
		for _, c := range children {
			byName[c.Name] = append(byName[c.Name], c)
		}
		v.cover[top.Name] = map[string]int64{}
		for name, cs := range byName {
			v.cover[top.Name][name] = covered(cs)
		}
		v.self[top.Name] = top.End - top.Start - covered(children)
	}
	out := make([]opView, 0, len(order))
	for _, id := range order {
		out = append(out, *byTrace[id])
	}
	return out
}

// covered is the length of the union of the spans' intervals: children that
// run in parallel are not counted twice.
func covered(spans []span) int64 {
	if len(spans) == 0 {
		return 0
	}
	s := slices.Clone(spans)
	slices.SortFunc(s, func(a, b span) int { return int(a.Start - b.Start) })
	var total int64
	curStart, curEnd := s[0].Start, s[0].End
	for _, x := range s[1:] {
		if x.Start > curEnd {
			total += curEnd - curStart
			curStart, curEnd = x.Start, x.End
		} else if x.End > curEnd {
			curEnd = x.End
		}
	}
	return total + curEnd - curStart
}

// tracedNode decorates a global.Node so every node RPC the global
// orchestrator issues becomes a span. The embedded Node serves the methods
// that are not on the deploy path.
type tracedNode struct {
	global.Node
	tr *tracer
}

func (n *tracedNode) Status() (global.Status, error) {
	defer n.tr.child("node.status", 0)()
	return n.Node.Status()
}

func (n *tracedNode) Deploy(g *nffg.Graph) error {
	defer n.tr.child("node.deploy", 0)()
	return n.Node.Deploy(g)
}

func (n *tracedNode) Update(g *nffg.Graph) error {
	defer n.tr.child("node.update", 0)()
	return n.Node.Update(g)
}

func (n *tracedNode) Undeploy(id string) error {
	defer n.tr.child("node.undeploy", 0)()
	return n.Node.Undeploy(id)
}

func (n *tracedNode) GraphSpec(id string) (*nffg.Graph, bool, error) {
	defer n.tr.child("node.graphspec", 0)()
	return n.Node.GraphSpec(id)
}

// tracedTransport decorates a cluster.Transport so replication RPCs become
// spans. Gossip and votes are never caused by a REST request; they are
// forwarded untraced.
type tracedTransport struct {
	cluster.Transport
	tr *tracer
}

func (t *tracedTransport) Dial(id string) (cluster.Peer, error) {
	p, err := t.Transport.Dial(id)
	if err != nil {
		return nil, err
	}
	return &tracedPeer{Peer: p, tr: t.tr}, nil
}

type tracedPeer struct {
	cluster.Peer
	tr *tracer
}

func (p *tracedPeer) Append(req cluster.AppendRequest) (cluster.AppendReply, error) {
	defer p.tr.child("cluster.rpc", 0)()
	return p.Peer.Append(req)
}
