//go:build !race

// Allocation figures differ under the race detector's instrumentation.

package un_test

import (
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"

	un "repro"
	"repro/internal/global"
	"repro/internal/rest"
)

// restLifecycle returns deploy-churn's lifecycle — create, get, placement,
// config-only update, delete — through the global REST handler, in process,
// on the three-replica control plane over the three-node line, followers
// included, with the chain and its update it puts.
func restLifecycle(t *testing.T) (lifecycle func(), orch *global.Orchestrator, g, cfg *un.Graph) {
	orch = haLineFleet(t, 250)
	h := rest.NewGlobal(orch, nil)
	g, cfg = globalChain("svc", 6), globalChain("svc", 6)
	g.NFs[0].Config = map[string]string{"rules": "drop proto=tcp dport=82", "default": "accept"}
	cfg.NFs[0].Config = map[string]string{"rules": "drop proto=tcp dport=82;drop proto=tcp dport=443", "default": "accept"}
	create, update := mustJSON(t, g), mustJSON(t, cfg)
	lifecycle = func() {
		for _, req := range []struct {
			method, path, body string
			want               int
		}{
			{http.MethodPut, "/v1/graphs/svc", create, http.StatusCreated},
			{http.MethodGet, "/v1/graphs/svc", "", http.StatusOK},
			{http.MethodGet, "/v1/graphs/svc/placement", "", http.StatusOK},
			{http.MethodPut, "/v1/graphs/svc", update, http.StatusOK},
			{http.MethodDelete, "/v1/graphs/svc", "", http.StatusOK},
		} {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(req.method, req.path, strings.NewReader(req.body)))
			if rec.Code != req.want {
				t.Fatalf("%s %s = %d, want %d: %s", req.method, req.path, rec.Code, req.want, rec.Body)
			}
		}
	}
	for i := 0; i < 10; i++ {
		lifecycle() // lazily built state, as unbench's warm-up
	}
	return lifecycle, orch, g, cfg
}

// TestRESTLifecycleCost pins what restLifecycle allocates: the path
// deploy-churn drives, which the in-process gates (TestHALifecycleBytesCeiling,
// TestDeployChurnHeapPlateaus) do not cross. It read 1 676 allocations and
// 173.8 KB while the global tier and each node kept copies of their own,
// four copies of the chain per lifecycle; 1 584 and 156.8 KB once the
// handler handed over the graph it decoded and every tier held that value;
// 1 346 and 152.3 KB since the journal renders an NF event's detail when it
// is read and names are joined instead of formatted. The ceilings are that
// reading plus 10 %.
func TestRESTLifecycleCost(t *testing.T) {
	const (
		rounds      = 60
		ceilMallocs = 1480
		ceilKB      = 168
	)
	lifecycle, _, _, _ := restLifecycle(t)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < rounds; i++ {
		lifecycle()
	}
	runtime.ReadMemStats(&after)
	mallocs := float64(after.Mallocs-before.Mallocs) / rounds
	kb := float64(after.TotalAlloc-before.TotalAlloc) / 1024 / rounds
	t.Logf("%.0f allocations and %.1f KB per REST lifecycle (ceilings %d and %d KB)", mallocs, kb, ceilMallocs, ceilKB)
	if mallocs > ceilMallocs || kb > ceilKB {
		t.Errorf("%.0f allocations and %.1f KB per REST lifecycle, ceilings %d and %d KB", mallocs, kb, ceilMallocs, ceilKB)
	}
}

// TestGraphCopiesPerCall counts nffg.(*Graph).Clone by what it allocates,
// every allocation sampled: a REST lifecycle copies no graph, since the
// handler hands over the graph it decoded and the desired state, the intent
// record and every node hold that value and its pieces; an in-process
// Deploy, Update or Graph copies its graph once; so at a node, through its
// own REST server and through un.Node. A reconcile pass's drift check
// compares each node's held graph without a copy. It read four copies of the
// chain per REST lifecycle, and as many per in-process deploy and update,
// while each tier kept copies of its own; the drift check copied every
// node's subgraph on every pass.
func TestGraphCopiesPerCall(t *testing.T) {
	lifecycle, orch, g, cfg := restLifecycle(t)
	defer func(rate int) { runtime.MemProfileRate = rate }(runtime.MemProfileRate)
	runtime.MemProfileRate = 1
	clones := cloneObjects()
	_ = g.Clone()
	perCopy := cloneObjects() - clones
	for i := 0; i < 10; i++ {
		lifecycle()
	}
	if n := cloneObjects() - clones - perCopy; n != 0 {
		t.Errorf("10 REST lifecycles cloned %d objects of graphs, want none (a copy of the chain is %d)", n, perCopy)
	}
	clones = cloneObjects()
	if err := orch.Deploy(g); err != nil {
		t.Fatal(err)
	}
	if err := orch.Update(cfg); err != nil {
		t.Fatal(err)
	}
	orch.ReconcileOnce()
	if _, ok := orch.Graph("svc"); !ok {
		t.Fatal("graph not deployed")
	}
	if err := orch.Undeploy("svc"); err != nil {
		t.Fatal(err)
	}
	if n := cloneObjects() - clones; n != 3*perCopy {
		t.Errorf("an in-process Deploy, Update, reconcile pass, Graph and Undeploy cloned %d objects of graphs, want 3 copies of %d", n, perCopy)
	}

	// The node's own REST server and un.Node, on the IPsec CPE graph.
	node, err := un.NewNode(un.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer node.Close()
	cpe, upd := cpeGraph("cpe", un.TechDocker), cpeGraph("cpe", un.TechDocker)
	upd.NFs[0].Config["spi"] = "4097"
	clones = cloneObjects()
	_ = cpe.Clone()
	perCopy = cloneObjects() - clones
	for _, req := range []struct{ method, body string }{
		{http.MethodPut, mustJSON(t, cpe)}, {http.MethodGet, ""}, {http.MethodPut, mustJSON(t, upd)}, {http.MethodDelete, ""},
	} {
		rec := httptest.NewRecorder()
		node.Handler().ServeHTTP(rec, httptest.NewRequest(req.method, "/v1/graphs/cpe", strings.NewReader(req.body)))
		if rec.Code/100 != 2 {
			t.Fatalf("node %s = %d: %s", req.method, rec.Code, rec.Body)
		}
	}
	if n := cloneObjects() - clones - perCopy; n != 0 {
		t.Errorf("a node's REST deploy, get, update and delete cloned %d objects of graphs, want none (a copy is %d)", n, perCopy)
	}
	clones = cloneObjects()
	if err := node.Deploy(cpe); err != nil {
		t.Fatal(err)
	}
	if err := node.Update(upd); err != nil {
		t.Fatal(err)
	}
	if _, ok := node.Graph("cpe"); !ok {
		t.Fatal("graph not deployed")
	}
	if n := cloneObjects() - clones; n != 3*perCopy {
		t.Errorf("un.Node Deploy, Update and Graph cloned %d objects of graphs, want 3 copies of %d", n, perCopy)
	}
}

// cloneObjects returns how many objects nffg.(*Graph).Clone has allocated,
// as far as the heap profile has sampled them.
func cloneObjects() int64 {
	return sampledObjects(func(fn string) bool { return fn == "repro/internal/nffg.(*Graph).Clone" })
}

// sampledObjects returns how many objects the heap profile has sampled under
// a stack frame whose function under matches.
func sampledObjects(under func(fn string) bool) int64 {
	for i := 0; i < 3; i++ {
		runtime.GC() // the profile publishes what a finished cycle saw
	}
	var recs []runtime.MemProfileRecord
	n, ok := runtime.MemProfile(nil, true)
	for !ok {
		recs = make([]runtime.MemProfileRecord, n+64)
		n, ok = runtime.MemProfile(recs, true)
	}
	var total int64
	for _, r := range recs[:n] {
		frames := runtime.CallersFrames(r.Stack())
		for more := true; more; {
			var f runtime.Frame
			f, more = frames.Next()
			if under(f.Function) {
				total += r.AllocObjects
				break
			}
		}
	}
	return total
}

// TestDeployPathFormatsNothing: ten REST lifecycles, every allocation
// sampled, allocate no object under a fmt frame. The journal renders an NF
// event's detail when it is read, and names are joined, not formatted; the
// lifecycle's Sprintf calls were 7.2 % of its allocated objects.
func TestDeployPathFormatsNothing(t *testing.T) {
	lifecycle, _, _, _ := restLifecycle(t)
	defer func(rate int) { runtime.MemProfileRate = rate }(runtime.MemProfileRate)
	runtime.MemProfileRate = 1
	underFmt := func(fn string) bool { return strings.HasPrefix(fn, "fmt.") }
	before := sampledObjects(underFmt)
	for i := 0; i < 10; i++ {
		lifecycle()
	}
	if n := sampledObjects(underFmt) - before; n != 0 {
		t.Errorf("10 REST lifecycles allocated %d objects under fmt, want none", n)
	}
}
