package un_test

import (
	"encoding/json"
	"flag"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	un "repro"
	"repro/internal/rest"
)

var updateEvents = flag.Bool("events.update", false, "rewrite testdata/events_*.golden from this run")

// eventLines fetches GET /v1/events from h and renders each event as one
// "type\tnode\tgraph\tdetail" line, failing on an event with no sequence
// number or time.
func eventLines(t *testing.T, h http.Handler) []string {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/events", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("GET /v1/events = %d: %s", rec.Code, rec.Body)
	}
	var evs []struct {
		Seq                       uint64
		Time                      string
		Type, Node, Graph, Detail string
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &evs); err != nil {
		t.Fatal(err)
	}
	lines := make([]string, 0, len(evs))
	for _, ev := range evs {
		if ev.Seq == 0 || ev.Time == "" {
			t.Fatalf("event %+v has no sequence number or time", ev)
		}
		lines = append(lines, strings.Join([]string{ev.Type, ev.Node, ev.Graph, ev.Detail}, "\t"))
	}
	return lines
}

// checkGolden compares lines with testdata/name, or rewrites it under
// -events.update.
func checkGolden(t *testing.T, name string, lines []string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	got := strings.Join(lines, "\n") + "\n"
	if *updateEvents {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("events differ from %s:\ngot:\n%swant:\n%s", path, got, want)
	}
}

// TestEventsAPIGolden pins the type, node, graph and detail of every event
// GET /v1/events returns for one REST lifecycle, byte for byte: on a node
// (the IPsec CPE graph: deploy, get, config update, delete, in journal
// order) and on the global tier (deploy-churn's lifecycle over the
// three-node line; start goroutines interleave, so sorted).
func TestEventsAPIGolden(t *testing.T) {
	node, err := un.NewNode(un.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer node.Close()
	cpe, upd := cpeGraph("cpe", un.TechDocker), cpeGraph("cpe", un.TechDocker)
	upd.NFs[0].Config["spi"] = "4097"
	for _, req := range []struct{ method, body string }{
		{http.MethodPut, mustJSON(t, cpe)}, {http.MethodGet, ""}, {http.MethodPut, mustJSON(t, upd)}, {http.MethodDelete, ""},
	} {
		rec := httptest.NewRecorder()
		node.Handler().ServeHTTP(rec, httptest.NewRequest(req.method, "/v1/graphs/cpe", strings.NewReader(req.body)))
		if rec.Code/100 != 2 {
			t.Fatalf("node %s = %d: %s", req.method, rec.Code, rec.Body)
		}
	}
	checkGolden(t, "events_node.golden", eventLines(t, node.Handler()))

	orch := haLineFleet(t, 250)
	h := rest.NewGlobal(orch, nil)
	before := eventLines(t, h)
	g, cfg := globalChain("svc", 6), globalChain("svc", 6)
	g.NFs[0].Config = map[string]string{"rules": "drop proto=tcp dport=82", "default": "accept"}
	cfg.NFs[0].Config = map[string]string{"rules": "drop proto=tcp dport=82;drop proto=tcp dport=443", "default": "accept"}
	for _, req := range []struct{ method, path, body string }{
		{http.MethodPut, "/v1/graphs/svc", mustJSON(t, g)},
		{http.MethodGet, "/v1/graphs/svc", ""},
		{http.MethodGet, "/v1/graphs/svc/placement", ""},
		{http.MethodPut, "/v1/graphs/svc", mustJSON(t, cfg)},
		{http.MethodDelete, "/v1/graphs/svc", ""},
	} {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(req.method, req.path, strings.NewReader(req.body)))
		if rec.Code/100 != 2 {
			t.Fatalf("global %s %s = %d: %s", req.method, req.path, rec.Code, rec.Body)
		}
	}
	after := eventLines(t, h)
	slices.Sort(before)
	slices.Sort(after)
	var lifecycle []string
	for _, l := range after {
		if i, found := slices.BinarySearch(before, l); found {
			before = slices.Delete(before, i, i+1)
			continue
		}
		lifecycle = append(lifecycle, l)
	}
	checkGolden(t, "events_global.golden", lifecycle)
}

func mustJSON(t *testing.T, g *un.Graph) string {
	t.Helper()
	data, err := json.Marshal(g)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}
