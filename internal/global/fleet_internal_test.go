package global

import (
	"errors"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/cluster"
	"repro/internal/nffg"
)

// plan is pure and ordered: vacated nodes first, then updates and deploys in
// sorted node order, and nothing for a node whose subgraph did not change.
func TestPlanOrdersSteps(t *testing.T) {
	a, b, c := &nffg.Graph{ID: "g"}, &nffg.Graph{ID: "g"}, &nffg.Graph{ID: "g"}
	a2, b2 := &nffg.Graph{ID: "g"}, &nffg.Graph{ID: "g"}
	type fp = map[string]*nffg.Graph
	for _, tc := range []struct {
		name       string
		have, want fp
		steps      []step
	}{
		{"first deploy", nil, fp{"n2": b, "n1": a, "n3": c},
			[]step{{verbDeploy, "n1", a}, {verbDeploy, "n2", b}, {verbDeploy, "n3", c}}},
		{"undeploy", fp{"n3": c, "n1": a}, nil,
			[]step{{verbUndeploy, "n1", nil}, {verbUndeploy, "n3", nil}}},
		{"move", fp{"n1": a, "n2": b}, fp{"n2": b2, "n3": c},
			[]step{{verbUndeploy, "n1", nil}, {verbUpdate, "n2", b2}, {verbDeploy, "n3", c}}},
		{"grow", fp{"n1": a}, fp{"n1": a2, "n2": b},
			[]step{{verbUpdate, "n1", a2}, {verbDeploy, "n2", b}}},
		{"shadow armed", fp{"n1": a}, fp{"n1": a, "n2": a},
			[]step{{verbDeploy, "n2", a}}},
		{"shadow dropped", fp{"n1": a, "n2": a}, fp{"n1": a},
			[]step{{verbUndeploy, "n2", nil}}},
		{"shadow promoted", fp{"n1": a, "n2": a}, fp{"n2": a},
			[]step{{verbUndeploy, "n1", nil}}},
		{"unchanged", fp{"n1": a, "n2": b}, fp{"n1": a, "n2": b}, []step{}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			haveBefore, wantBefore := fmt.Sprint(tc.have), fmt.Sprint(tc.want)
			for run := 0; run < 2; run++ {
				if got := plan(tc.have, tc.want); !reflect.DeepEqual(got, tc.steps) {
					t.Fatalf("plan = %v, want %v", got, tc.steps)
				}
			}
			if fmt.Sprint(tc.have) != haveBefore || fmt.Sprint(tc.want) != wantBefore {
				t.Fatal("plan modified its inputs")
			}
		})
	}
}

// faultyFleet is a fleet of in-memory nodes whose deploy verbs share one call
// counter: the calls whose index is in failAt are refused.
type faultyFleet struct {
	calls  int
	failAt map[int]bool
	nodes  map[string]*faultyNode
}

type faultyNode struct {
	fleet  *faultyFleet
	name   string
	graphs map[string]*nffg.Graph
}

func (n *faultyNode) verb(what string) error {
	i := n.fleet.calls
	n.fleet.calls++
	if n.fleet.failAt[i] {
		return fmt.Errorf("injected fault on call %d (%s on %s)", i, what, n.name)
	}
	return nil
}

func (n *faultyNode) Name() string { return n.name }

func (n *faultyNode) Status() (Status, error) {
	return Status{Name: n.name, Graphs: sortedKeys(n.graphs)}, nil
}

func (n *faultyNode) Deploy(g *nffg.Graph) error {
	if err := n.verb("deploy"); err != nil {
		return err
	}
	if _, dup := n.graphs[g.ID]; dup {
		return fmt.Errorf("%s already holds %q", n.name, g.ID)
	}
	n.graphs[g.ID] = g
	return nil
}

func (n *faultyNode) Update(g *nffg.Graph) error {
	if err := n.verb("update"); err != nil {
		return err
	}
	if _, held := n.graphs[g.ID]; !held {
		return fmt.Errorf("%s does not hold %q", n.name, g.ID)
	}
	n.graphs[g.ID] = g
	return nil
}

func (n *faultyNode) Undeploy(id string) error {
	if err := n.verb("undeploy"); err != nil {
		return err
	}
	if _, held := n.graphs[id]; !held {
		return fmt.Errorf("%s does not hold %q", n.name, id)
	}
	delete(n.graphs, id)
	return nil
}

func (n *faultyNode) Reflavor(string, string, nffg.Technology) error { return nil }
func (n *faultyNode) Scale(string, string, int) error                { return nil }

func (n *faultyNode) GraphSpec(id string) (*nffg.Graph, bool, error) {
	g, ok := n.graphs[id]
	return g, ok, nil
}

func newFaultyFleet(t *testing.T) (*Orchestrator, *faultyFleet) {
	t.Helper()
	o := New(Config{Logf: t.Logf})
	f := &faultyFleet{nodes: make(map[string]*faultyNode)}
	for _, name := range []string{"n1", "n2", "n3"} {
		n := &faultyNode{fleet: f, name: name, graphs: make(map[string]*nffg.Graph)}
		f.nodes[name] = n
		if err := o.AddNode(n); err != nil {
			t.Fatal(err)
		}
	}
	return o, f
}

// holding reports what every node of the fleet runs of graph id.
func (f *faultyFleet) holding(id string) map[string]*nffg.Graph {
	out := make(map[string]*nffg.Graph)
	for name, n := range f.nodes {
		if g, ok := n.graphs[id]; ok {
			out[name] = g
		}
	}
	return out
}

// Every step of a transition is made to fail in turn, for a first deploy, an
// in-place update, a move and an undeploy: a refused deploy or update leaves
// the fleet and the bookkeeping on the deployment it came from with the
// aborted partition's VLANs released; a refused undeploy never fails the
// transition, is deferred on exactly that node and parks the retired
// partition's VLANs until the node has been cleaned.
func TestTransitionFaultAtEveryStep(t *testing.T) {
	const id = "g"
	link := Link{A: "n1", AIf: "x", B: "n2", BIf: "x"}
	// partitionOn builds a deployment over the given nodes riding one
	// freshly allocated stitch VLAN; every call names its subgraphs apart.
	version := 0
	partitionOn := func(t *testing.T, o *Orchestrator, nodes ...string) *deployment {
		version++
		vlan, err := o.alloc.alloc(link)
		if err != nil {
			t.Fatal(err)
		}
		dep := &deployment{
			Desired:  &nffg.Graph{ID: id},
			Subs:     make(map[string]*nffg.Graph),
			Stitches: []stitch{{EP: "gx", Src: "n1", Dst: "n2", Hops: []stitchHop{{Link: link, VLAN: vlan}}}},
		}
		for _, n := range nodes {
			dep.Subs[n] = &nffg.Graph{ID: id, Name: fmt.Sprintf("v%d@%s", version, n)}
		}
		return dep
	}
	reserved := func(o *Orchestrator, dep *deployment) bool {
		return o.alloc.inUse[link.key()][dep.Stitches[0].Hops[0].VLAN]
	}
	for _, tc := range []struct {
		name       string
		have, want []string // nodes of the partition before and after; nil: no deployment
	}{
		{"deploy", nil, []string{"n1", "n2", "n3"}},
		{"update", []string{"n1", "n2", "n3"}, []string{"n1", "n2", "n3"}},
		{"move", []string{"n1", "n2"}, []string{"n2", "n3"}},
		{"undeploy", []string{"n1", "n2", "n3"}, nil},
	} {
		// setup brings a fresh fleet onto have and returns both deployments.
		setup := func(t *testing.T) (*Orchestrator, *faultyFleet, *deployment, *deployment) {
			o, f := newFaultyFleet(t)
			var have, want *deployment
			if tc.have != nil {
				have = partitionOn(t, o, tc.have...)
				if err := o.transition(cluster.OpDeploy, id, have); err != nil {
					t.Fatal(err)
				}
			}
			if tc.want != nil {
				want = partitionOn(t, o, tc.want...)
			}
			f.calls = 0
			return o, f, have, want
		}
		_, _, have, want := setup(t)
		steps := plan(have.footprint(), want.footprint())
		for i, s := range steps {
			t.Run(fmt.Sprintf("%s/step%d-%s-%s", tc.name, i, s.verb, s.node), func(t *testing.T) {
				o, f, have, want := setup(t)
				f.failAt = map[int]bool{i: true}
				err := o.transition(cluster.OpUpdate, id, want)
				if s.verb == verbUndeploy {
					if err != nil {
						t.Fatalf("a refused undeploy failed the transition: %v", err)
					}
					if o.graphs[id] != want {
						t.Fatal("bookkeeping not swapped")
					}
					if !reflect.DeepEqual(o.pending, map[string]map[string]bool{s.node: {id: true}}) {
						t.Fatalf("pending = %v, want exactly %s", o.pending, s.node)
					}
					if len(o.parked) != 1 || !reserved(o, have) {
						t.Fatal("retired partition's VLAN not parked while a node may still tag with it")
					}
					// The node answers again: one pass retires the leftover
					// and releases the VLAN.
					f.failAt = nil
					o.ReconcileOnce()
					if len(o.pending[s.node]) != 0 || len(o.parked) != 0 || reserved(o, have) {
						t.Fatalf("after cleanup: pending %v, parked %d, VLAN reserved %v",
							o.pending, len(o.parked), reserved(o, have))
					}
					if _, held := f.nodes[s.node].graphs[id]; held {
						t.Fatalf("%s still holds the retired subgraph", s.node)
					}
					return
				}
				var refused *stepError
				if !errors.As(err, &refused) || refused.node != s.node {
					t.Fatalf("transition error = %v, want the refusal of %s", err, s.node)
				}
				if o.graphs[id] != have {
					t.Fatal("bookkeeping moved despite the failure")
				}
				if got := f.holding(id); !reflect.DeepEqual(got, have.footprint()) && (len(got) != 0 || have != nil) {
					t.Fatalf("fleet holds %v, want it back on %v", got, have.footprint())
				}
				if len(o.pending) != 0 || len(o.parked) != 0 {
					t.Fatalf("clean revert left pending %v, parked %d", o.pending, len(o.parked))
				}
				if reserved(o, want) {
					t.Fatal("aborted partition's VLAN still reserved after a clean revert")
				}
				if have != nil && !reserved(o, have) {
					t.Fatal("serving partition's VLAN released by a failed move")
				}
			})
		}
	}

	// A revert that cannot complete: the third deploy is refused and then
	// the first node refuses to let go. Exactly that node is pending, and
	// the aborted VLAN stays parked until it has been cleaned.
	t.Run("deploy/partial-revert", func(t *testing.T) {
		o, f := newFaultyFleet(t)
		want := partitionOn(t, o, "n1", "n2", "n3")
		f.failAt = map[int]bool{2: true, 3: true} // deploy n3, then the undo on n1
		if err := o.transition(cluster.OpDeploy, id, want); err == nil {
			t.Fatal("transition succeeded")
		}
		if !reflect.DeepEqual(o.pending, map[string]map[string]bool{"n1": {id: true}}) {
			t.Fatalf("pending = %v, want exactly n1", o.pending)
		}
		if got := f.holding(id); len(got) != 1 || got["n1"] == nil {
			t.Fatalf("fleet holds %v, want only n1's leftover", got)
		}
		if len(o.parked) != 1 || !reserved(o, want) {
			t.Fatal("aborted VLAN released while n1 may still tag with it")
		}
		f.failAt = nil
		o.ReconcileOnce()
		if len(f.holding(id)) != 0 || len(o.pending["n1"]) != 0 || reserved(o, want) {
			t.Fatalf("after cleanup: fleet %v, pending %v, VLAN reserved %v",
				f.holding(id), o.pending, reserved(o, want))
		}
	})
}
