package global

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"sync"

	"repro/internal/telemetry"
)

// fleetMetrics instruments the global control plane.
type fleetMetrics struct {
	reconciles       telemetry.Counter
	reschedules      telemetry.Counter
	rescheduleFails  telemetry.Counter
	driftRepairs     telemetry.Counter
	retired          telemetry.Counter
	probeFailures    telemetry.Counter
	scrapeFailures   telemetry.Counter
	reflavors        telemetry.Counter
	reflavorFails    telemetry.Counter
	scales           telemetry.Counter
	scaleFails       telemetry.Counter
	promotions       telemetry.Counter
	outages          telemetry.Counter
	stateSyncs       telemetry.Counter
	linkDowns        telemetry.Counter
	reconcileLatency *telemetry.Histogram
}

func newFleetMetrics() *fleetMetrics {
	return &fleetMetrics{reconcileLatency: telemetry.NewHistogram(telemetry.LatencyBuckets()...)}
}

// MetricsSource is the optional scrape surface of a fleet Node: nodes
// implementing it contribute their samples to the global /metrics view,
// tagged with a node label.
type MetricsSource interface {
	MetricsText() (string, error)
}

// EventSource is the optional journal surface of a fleet Node: nodes
// implementing it contribute their events to the global /events view.
type EventSource interface {
	Events() ([]telemetry.Event, error)
}

// Journal returns the global orchestrator's event journal (probe
// transitions, reschedules, drift repairs, deferred-removal retirements).
func (o *Orchestrator) Journal() *telemetry.Journal { return o.journal }

// Metrics returns the global orchestrator's own metric registry (the
// control-plane view; GatherFleet adds the per-node datapath samples).
func (o *Orchestrator) Metrics() *telemetry.Registry { return o.registry }

// Collect implements telemetry.Collector: reconcile-loop outcome counters
// and per-member liveness/capacity gauges.
func (o *Orchestrator) Collect(e *telemetry.Exposition) {
	o.mu.Lock()
	type memberView struct {
		name  string
		alive bool
		st    Status
	}
	members := make([]memberView, 0, len(o.members))
	for name, m := range o.members {
		members = append(members, memberView{name: name, alive: m.alive, st: m.last})
	}
	graphs := len(o.graphs)
	pendingRemovals := 0
	for _, set := range o.pending {
		pendingRemovals += len(set)
	}
	parked := len(o.parked)
	o.mu.Unlock()

	for _, m := range members {
		l := telemetry.Labels{"node": m.name}
		alive := 0.0
		if m.alive {
			alive = 1
		}
		e.Gauge("un_global_node_alive", "1 while the member answers health probes.", l, alive)
		e.Gauge("un_global_node_free_cpu_millis", "Member's free CPU millicores at last probe.", l, float64(m.st.FreeCPUMillis))
		e.Gauge("un_global_node_total_cpu_millis", "Member's CPU millicore capacity.", l, float64(m.st.TotalCPUMillis))
		e.Gauge("un_global_node_free_ram_bytes", "Member's free RAM at last probe.", l, float64(m.st.FreeRAMBytes))
		e.Gauge("un_global_node_graphs", "Subgraphs the member held at last probe.", l, float64(len(m.st.Graphs)))
	}
	e.Gauge("un_global_nodes", "Registered fleet members.", nil, float64(len(members)))
	e.Gauge("un_global_graphs", "Desired global graphs.", nil, float64(graphs))
	e.Gauge("un_global_pending_removals", "Subgraph removals deferred to unreachable nodes.", nil, float64(pendingRemovals))
	e.Gauge("un_global_parked_stitch_sets", "Stitch VLAN sets parked on unreachable-node cleanup.", nil, float64(parked))
	m := o.metrics
	e.Counter("un_global_reconcile_total", "Reconcile passes run.", nil, m.reconciles.Value())
	e.Counter("un_global_reschedules_total", "Graphs rescheduled off dead or withdrawn nodes.", nil, m.reschedules.Value())
	e.Counter("un_global_reschedule_failures_total", "Reschedule attempts that failed (retried next pass).", nil, m.rescheduleFails.Value())
	e.Counter("un_global_drift_repairs_total", "Lost or diverged subgraphs reconverged.", nil, m.driftRepairs.Value())
	e.Counter("un_global_retired_total", "Deferred subgraph removals completed.", nil, m.retired.Value())
	e.Counter("un_global_probe_failures_total", "Health probes that errored.", nil, m.probeFailures.Value())
	e.Counter("un_global_scrape_failures_total", "Fleet metric scrapes that errored.", nil, m.scrapeFailures.Value())
	e.Counter("un_global_reflavors_total", "NF flavor hot-swaps issued (API and pressure relief).", nil, m.reflavors.Value())
	e.Counter("un_global_reflavor_failures_total", "NF flavor hot-swaps that failed.", nil, m.reflavorFails.Value())
	e.Counter("un_global_scales_total", "NF replica-set resizes issued through the fleet API.", nil, m.scales.Value())
	e.Counter("un_global_scale_failures_total", "NF replica-set resizes that failed.", nil, m.scaleFails.Value())
	e.Counter("un_global_standby_promotions_total", "Warm shadows promoted after losing a primary node.", nil, m.promotions.Value())
	e.Counter("un_global_outages_total", "Faults detected on redundancy-protected graphs (primary or standby node lost).", nil, m.outages.Value())
	e.Counter("un_global_standby_synced_flows_total", "Per-flow state entries replicated to standby shadows.", nil, m.stateSyncs.Value())
	e.Counter("un_global_link_downs_total", "Inter-node links severed (withdrawn from stitching).", nil, m.linkDowns.Value())
	e.Histogram("un_global_reconcile_seconds", "Wall time of one reconcile pass.", nil, m.reconcileLatency.Snapshot())
	e.Counter("un_global_journal_events_total", "Events ever recorded in the global journal.", nil, o.journal.Total())
}

// pulled is what one alive member answered to a fleet-wide pull.
type pulled[T any] struct {
	node string
	val  T
}

// pullAlive calls get on every alive member implementing the optional
// surface S, in parallel and outside the orchestrator lock: one slow node
// costs max(single-node time), not the sum, and cannot push the whole pull
// past a collector's deadline. A member that fails mid-pull (e.g. dies
// between the liveness snapshot and the call) is skipped and counted in
// un_global_scrape_failures_total; what names the pull in the log.
func pullAlive[S, T any](o *Orchestrator, what string, get func(S) (T, error)) []pulled[T] {
	o.mu.Lock()
	var names []string
	var srcs []S
	for name, m := range o.members {
		if src, ok := m.node.(S); ok && m.alive {
			names, srcs = append(names, name), append(srcs, src)
		}
	}
	o.mu.Unlock()
	vals, errs := make([]T, len(srcs)), make([]error, len(srcs))
	var wg sync.WaitGroup
	for i := range srcs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			vals[i], errs[i] = get(srcs[i])
		}(i)
	}
	wg.Wait()
	out := make([]pulled[T], 0, len(srcs))
	for i, err := range errs {
		if err != nil {
			o.metrics.scrapeFailures.Inc()
			o.cfg.Logf("global: %s %q: %v", what, names[i], err)
			continue
		}
		out = append(out, pulled[T]{node: names[i], val: vals[i]})
	}
	return out
}

// GatherFleet fills e with the fleet-wide metric view: the global
// orchestrator's own registry plus one scrape of every alive member that
// exposes metrics, each member's samples tagged with its node name.
func (o *Orchestrator) GatherFleet(e *telemetry.Exposition) {
	for _, scrape := range pullAlive(o, "scraping", MetricsSource.MetricsText) {
		if err := e.AddText(scrape.val, telemetry.Labels{"node": scrape.node}); err != nil {
			o.metrics.scrapeFailures.Inc()
			o.cfg.Logf("global: merging scrape of %q: %v", scrape.node, err)
		}
	}
	// Own registry last, so this scrape's failures are already counted in
	// the un_global_scrape_failures_total sample it renders.
	o.registry.GatherInto(e)
}

// WriteFleetMetrics renders the fleet-wide metric view to w in Prometheus
// text format.
func (o *Orchestrator) WriteFleetMetrics(w io.Writer) error {
	e := telemetry.NewExposition()
	o.GatherFleet(e)
	_, err := e.WriteTo(w)
	return err
}

// FleetEvents merges the global journal with the journals of every alive
// member that exposes one, interleaved by time and tagged with the member's
// node name.
func (o *Orchestrator) FleetEvents() []telemetry.Event {
	streams := [][]telemetry.Event{o.journal.Events()}
	for _, fetch := range pullAlive(o, "fetching events of", EventSource.Events) {
		for j := range fetch.val {
			if fetch.val[j].Node == "" {
				fetch.val[j].Node = fetch.node
			}
		}
		streams = append(streams, fetch.val)
	}
	return telemetry.MergeEvents(streams...)
}

// MetricsText implements MetricsSource for LocalNode-wrapped universal
// nodes exposing WriteMetrics.
func (l *LocalNode) MetricsText() (string, error) {
	if err := l.check(); err != nil {
		return "", err
	}
	mw, ok := l.un.(interface{ WriteMetrics(io.Writer) error })
	if !ok {
		return "", fmt.Errorf("global: node %q exposes no metrics", l.name)
	}
	var buf bytes.Buffer
	if err := mw.WriteMetrics(&buf); err != nil {
		return "", err
	}
	return buf.String(), nil
}

// Events implements EventSource for LocalNode-wrapped universal nodes
// exposing a journal.
func (l *LocalNode) Events() ([]telemetry.Event, error) {
	if err := l.check(); err != nil {
		return nil, err
	}
	es, ok := l.un.(interface{ Events() []telemetry.Event })
	if !ok {
		return nil, fmt.Errorf("global: node %q exposes no events", l.name)
	}
	return es.Events(), nil
}

// MetricsText implements MetricsSource over the node's REST interface.
func (h *HTTPNode) MetricsText() (string, error) {
	resp, err := h.client.Get(h.base + "/v1/metrics")
	if err != nil {
		return "", fmt.Errorf("global: scraping %q: %w", h.name, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("global: scraping %q: HTTP %d", h.name, resp.StatusCode)
	}
	data, err := io.ReadAll(io.LimitReader(resp.Body, 8<<20))
	if err != nil {
		return "", err
	}
	return string(data), nil
}

// Events implements EventSource over the node's REST interface.
func (h *HTTPNode) Events() ([]telemetry.Event, error) {
	var evs []telemetry.Event
	_, err := h.call("fetching events of", http.MethodGet, "/v1/events", nil, &evs)
	return evs, err
}
