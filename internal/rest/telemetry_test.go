package rest_test

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"testing"

	un "repro"
	"repro/internal/global"
	"repro/internal/netdev"
	"repro/internal/pkt"
	"repro/internal/rest"
	"repro/internal/telemetry"
)

// promSampleRE matches one Prometheus text-format sample line.
var promSampleRE = regexp.MustCompile(
	`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[a-zA-Z_][a-zA-Z0-9_]*="(\\.|[^"\\])*"(,[a-zA-Z_][a-zA-Z0-9_]*="(\\.|[^"\\])*")*\})? ` +
		`[-+]?([0-9.eE+-]+|Inf|NaN)$`)

// validatePromText checks every line of a /metrics body is valid Prometheus
// text format and returns the sample lines.
func validatePromText(t *testing.T, body string) []string {
	t.Helper()
	var samples []string
	seenType := make(map[string]bool)
	for _, line := range strings.Split(strings.TrimRight(body, "\n"), "\n") {
		if strings.HasPrefix(line, "# HELP ") || strings.HasPrefix(line, "# TYPE ") {
			fields := strings.Fields(line)
			if len(fields) < 3 {
				t.Fatalf("malformed comment line %q", line)
			}
			if fields[1] == "TYPE" {
				if seenType[fields[2]] {
					t.Fatalf("duplicate TYPE for family %q", fields[2])
				}
				seenType[fields[2]] = true
			}
			continue
		}
		if !promSampleRE.MatchString(line) {
			t.Fatalf("invalid Prometheus sample line %q", line)
		}
		samples = append(samples, line)
	}
	return samples
}

func getBody(t *testing.T, url string) (string, *http.Response) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(data), resp
}

// TestNodeMetricsEndpoint deploys a graph, pushes a known number of frames
// and pins the deterministic parts of the /metrics body: content type,
// format validity, and exact values of the traffic, cache and control-plane
// counters.
func TestNodeMetricsEndpoint(t *testing.T) {
	node, srv := newServer(t)
	if resp := doPut(t, srv.URL+"/v1/graphs/cpe-vpn", ipsecGraphJSON); resp.StatusCode != http.StatusCreated {
		t.Fatalf("deploy: HTTP %d", resp.StatusCode)
	}
	lan, _ := node.InterfacePort("eth0")
	frame := pkt.MustBuildFrame(pkt.FrameSpec{
		SrcMAC: pkt.MAC{2, 0, 0, 0, 0, 1}, DstMAC: pkt.MAC{2, 0, 0, 0, 0, 2},
		SrcIP: pkt.Addr{10, 0, 0, 1}, DstIP: pkt.Addr{10, 0, 0, 2},
		SrcPort: 40000, DstPort: 5001, PayloadLen: 64,
	})
	const frames = 50
	for i := 0; i < frames; i++ {
		if err := lan.Send(netdev.Frame{Data: frame}); err != nil {
			t.Fatal(err)
		}
	}

	body, resp := getBody(t, srv.URL+"/v1/metrics")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1/metrics: HTTP %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != telemetry.ContentType {
		t.Fatalf("content type %q, want %q", ct, telemetry.ContentType)
	}
	samples := validatePromText(t, body)
	if len(samples) == 0 {
		t.Fatal("no samples in /metrics body")
	}
	// Golden control-plane lines.
	for _, want := range []string{
		`un_deploys_total 1`,
		`un_nf_starts_total 1`,
		`un_graphs 1`,
		`un_nf_instances{graph="cpe-vpn"} 1`,
		`un_steering_rules_programmed_total 4`,
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("/metrics missing %q\nbody:\n%s", want, body)
		}
	}
	// Every injected frame crosses LSI-0 twice: in from the interface, and
	// back from the graph LSI through the endpoint virtual link.
	rx := promValue(t, body, "un_lsi_rx_packets_total", `lsi="lsi-0"`)
	if rx != 2*frames {
		t.Fatalf("lsi-0 rx = %v, want %d", rx, 2*frames)
	}
	// Cache hit/miss counters must cover every LSI-0 pipeline entry.
	hits := promValue(t, body, "un_cache_hits_total", `lsi="lsi-0"`)
	misses := promValue(t, body, "un_cache_misses_total", `lsi="lsi-0"`)
	if hits+misses != rx || hits == 0 {
		t.Fatalf("cache hits %v + misses %v != rx %v", hits, misses, rx)
	}
	// A latency histogram family must be present with the +Inf terminator.
	if !strings.Contains(body, "# TYPE un_pipeline_latency_seconds histogram") ||
		!strings.Contains(body, `un_pipeline_latency_seconds_bucket{le="+Inf",lsi="lsi-0"}`) {
		t.Fatalf("latency histogram missing:\n%s", body)
	}
	// Per-table match counters carry the table label and saw the traffic.
	if promValue(t, body, "un_table_matches", `lsi="lsi-0",table="0"`) != 2*frames {
		t.Fatalf("table match counter wrong:\n%s", body)
	}
}

// promValue extracts one sample's value from a /metrics body.
func promValue(t *testing.T, body, name, labels string) float64 {
	t.Helper()
	prefix := fmt.Sprintf("%s{%s} ", name, labels)
	for _, line := range strings.Split(body, "\n") {
		if strings.HasPrefix(line, prefix) {
			var v float64
			if _, err := fmt.Sscanf(strings.TrimPrefix(line, prefix), "%g", &v); err != nil {
				t.Fatalf("parsing %q: %v", line, err)
			}
			return v
		}
	}
	t.Fatalf("no sample %s{%s} in body:\n%s", name, labels, body)
	return 0
}

// TestNodeEventsEndpoint pins the journal event sequence of a deploy /
// update / undeploy cycle and the ?since cursor.
func TestNodeEventsEndpoint(t *testing.T) {
	_, srv := newServer(t)
	if resp := doPut(t, srv.URL+"/v1/graphs/cpe-vpn", ipsecGraphJSON); resp.StatusCode != http.StatusCreated {
		t.Fatalf("deploy: HTTP %d", resp.StatusCode)
	}
	if resp := doDelete(t, srv.URL+"/v1/graphs/cpe-vpn"); resp.StatusCode != http.StatusOK {
		t.Fatalf("undeploy: HTTP %d", resp.StatusCode)
	}
	body, resp := getBody(t, srv.URL+"/v1/events")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1/events: HTTP %d", resp.StatusCode)
	}
	var evs []telemetry.Event
	if err := json.Unmarshal([]byte(body), &evs); err != nil {
		t.Fatalf("events not JSON: %v\n%s", err, body)
	}
	var types []string
	for _, ev := range evs {
		types = append(types, ev.Type)
		if ev.Node != "rest-node" {
			t.Fatalf("event %+v missing node name", ev)
		}
	}
	// The lifecycle state machine journals each per-NF transition
	// (pending->starting, starting->attaching, attaching->running on
	// deploy; running->stopped on undeploy) around the classic events.
	want := []string{
		"nf-state", "nf-state", "nf-state", "nf-start", "flow-mod", "deploy",
		"nf-state", "nf-stop", "undeploy",
	}
	if strings.Join(types, ",") != strings.Join(want, ",") {
		t.Fatalf("event sequence %v, want %v", types, want)
	}
	for _, ev := range evs {
		if ev.Graph != "cpe-vpn" {
			t.Fatalf("event %+v not tagged with graph", ev)
		}
	}

	// ?since tails the journal: a cursor on the deploy event returns only
	// the undeploy-side events.
	cursor := evs[5].Seq
	body, _ = getBody(t, fmt.Sprintf("%s/v1/events?since=%d", srv.URL, cursor))
	var tail []telemetry.Event
	if err := json.Unmarshal([]byte(body), &tail); err != nil {
		t.Fatal(err)
	}
	if len(tail) != 3 || tail[0].Type != "nf-state" || tail[1].Type != "nf-stop" {
		t.Fatalf("since=%d returned %v", cursor, tail)
	}
	if _, resp := getBody(t, srv.URL+"/v1/events?since=bogus"); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad since: HTTP %d, want 400", resp.StatusCode)
	}
}

// TestGlobalMetricsAggregation stands up a 2-node fleet under a global
// server and checks the fleet scrape: per-node labels on node samples,
// global control-plane families, and — when one node dies between the
// liveness snapshot and the scrape — a valid body that skips the dead node
// and counts the scrape failure.
func TestGlobalMetricsAggregation(t *testing.T) {
	mk := func(name string) (*un.Node, *global.LocalNode) {
		node, err := un.NewNode(un.Config{Name: name, Interfaces: []string{"lan", "wan"}})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(node.Close)
		return node, global.NewLocalNode(name, node)
	}
	_, l1 := mk("n1")
	_, l2 := mk("n2")
	gOrch := global.New(global.Config{Logf: t.Logf})
	for _, l := range []*global.LocalNode{l1, l2} {
		if err := gOrch.AddNode(l); err != nil {
			t.Fatal(err)
		}
	}
	gsrv := httptest.NewServer(rest.NewGlobal(gOrch, nil))
	t.Cleanup(gsrv.Close)

	body, resp := getBody(t, gsrv.URL+"/v1/metrics")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1/metrics: HTTP %d", resp.StatusCode)
	}
	validatePromText(t, body)
	for _, want := range []string{
		`un_global_node_alive{node="n1"} 1`,
		`un_global_node_alive{node="n2"} 1`,
		`un_lsi_rx_packets_total{lsi="lsi-0",node="n1"} 0`,
		`un_lsi_rx_packets_total{lsi="lsi-0",node="n2"} 0`,
		`un_global_scrape_failures_total 0`,
		"# TYPE un_global_reconcile_seconds histogram",
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("fleet scrape missing %q\nbody:\n%s", want, body)
		}
	}
	// Exactly one TYPE header per family even with two nodes contributing.
	if n := strings.Count(body, "# TYPE un_cache_hits_total"); n != 1 {
		t.Fatalf("TYPE un_cache_hits_total appears %d times", n)
	}

	// n2 dies after the liveness snapshot the orchestrator holds (no
	// reconcile pass runs in between): the fleet scrape must still succeed,
	// skip n2's samples and count one scrape failure.
	l2.SetDown(true)
	body, resp = getBody(t, gsrv.URL+"/v1/metrics")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1/metrics with dead node: HTTP %d", resp.StatusCode)
	}
	validatePromText(t, body)
	if !strings.Contains(body, `un_lsi_rx_packets_total{lsi="lsi-0",node="n1"} 0`) {
		t.Fatalf("surviving node missing from scrape:\n%s", body)
	}
	if strings.Contains(body, `node="n2"} 0`) && strings.Contains(body, `un_lsi_rx_packets_total{lsi="lsi-0",node="n2"}`) {
		t.Fatalf("dead node still scraped:\n%s", body)
	}
	if !strings.Contains(body, `un_global_scrape_failures_total 1`) {
		t.Fatalf("scrape failure not counted:\n%s", body)
	}

	// The fleet event view survives the dead node too.
	evBody, resp := getBody(t, gsrv.URL+"/v1/events")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1/events: HTTP %d", resp.StatusCode)
	}
	var evs []telemetry.Event
	if err := json.Unmarshal([]byte(evBody), &evs); err != nil {
		t.Fatal(err)
	}
}

// TestGlobalMetricsOverHTTPNodes runs the aggregation through real HTTP
// node scrapes (HTTPNode -> node REST /metrics), the production path.
func TestGlobalMetricsOverHTTPNodes(t *testing.T) {
	node, err := un.NewNode(un.Config{Name: "httpnode", Interfaces: []string{"lan", "wan"}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(node.Close)
	nsrv := httptest.NewServer(node.Handler())
	t.Cleanup(nsrv.Close)

	gOrch := global.New(global.Config{Logf: t.Logf})
	if err := gOrch.AddNode(global.NewHTTPNode("httpnode", nsrv.URL, nil)); err != nil {
		t.Fatal(err)
	}
	gsrv := httptest.NewServer(rest.NewGlobal(gOrch, nil))
	t.Cleanup(gsrv.Close)

	body, resp := getBody(t, gsrv.URL+"/v1/metrics")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1/metrics: HTTP %d", resp.StatusCode)
	}
	validatePromText(t, body)
	if !strings.Contains(body, `un_cache_hits_total{lsi="lsi-0",node="httpnode"} 0`) {
		t.Fatalf("HTTP-scraped node samples missing:\n%s", body)
	}
	evBody, resp := getBody(t, gsrv.URL+"/v1/events")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1/events: HTTP %d", resp.StatusCode)
	}
	var evs []telemetry.Event
	if err := json.Unmarshal([]byte(evBody), &evs); err != nil {
		t.Fatal(err)
	}
}
