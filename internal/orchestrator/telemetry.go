package orchestrator

import (
	"fmt"
	"io"
	"strings"

	"repro/internal/telemetry"
	"repro/internal/vswitch"
)

// opMetrics instruments the orchestrator's control-plane operations and
// feeds the node's metric registry and event journal. Counters and
// histograms are embedded primitives: recording them never takes the
// orchestrator lock.
type opMetrics struct {
	deploys, deployFailures     telemetry.Counter
	updates, updateFailures     telemetry.Counter
	undeploys, undeployFailures telemetry.Counter
	reflavors, reflavorFailures telemetry.Counter
	scales, scaleFailures       telemetry.Counter
	migratedFlows               telemetry.Counter
	promotions                  telemetry.Counter
	standbySyncedFlows          telemetry.Counter
	nfStarts, nfStops           telemetry.Counter
	steeringRules               telemetry.Counter
	deployLatency               *telemetry.Histogram
	updateLatency               *telemetry.Histogram
	undeployLatency             *telemetry.Histogram
	reflavorLatency             *telemetry.Histogram
	scaleLatency                *telemetry.Histogram
	migrationLatency            *telemetry.Histogram
}

func newOpMetrics() *opMetrics {
	return &opMetrics{
		deployLatency:    telemetry.NewHistogram(telemetry.LatencyBuckets()...),
		updateLatency:    telemetry.NewHistogram(telemetry.LatencyBuckets()...),
		undeployLatency:  telemetry.NewHistogram(telemetry.LatencyBuckets()...),
		reflavorLatency:  telemetry.NewHistogram(telemetry.LatencyBuckets()...),
		scaleLatency:     telemetry.NewHistogram(telemetry.LatencyBuckets()...),
		migrationLatency: telemetry.NewHistogram(telemetry.LatencyBuckets()...),
	}
}

// Journal returns the node's event journal (NF lifecycle, graph operations,
// steering reprogramming).
func (o *Orchestrator) Journal() *telemetry.Journal { return o.journal }

// Events returns the node's retained journal events, oldest first.
func (o *Orchestrator) Events() []telemetry.Event { return o.journal.Events() }

// Metrics returns the node's metric registry. The orchestrator registers
// itself at construction; callers may register extra collectors before
// serving it over /metrics.
func (o *Orchestrator) Metrics() *telemetry.Registry { return o.registry }

// WriteMetrics renders one scrape of the node registry to w in Prometheus
// text format.
func (o *Orchestrator) WriteMetrics(w io.Writer) error {
	return o.registry.WritePrometheus(w)
}

func boolGauge(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// lsiLabel is the per-switch label value: the switch name with the node
// prefix stripped ("lsi-0", "lsi-<graph>").
func (o *Orchestrator) lsiLabel(sw *vswitch.Switch) string {
	return strings.TrimPrefix(sw.Name(), o.cfg.NodeName+"/")
}

// Collect implements telemetry.Collector: per-LSI datapath counters, the
// microflow-cache state, a sampled packet-latency histogram, resource-ledger
// gauges and control-plane operation counters/timings.
func (o *Orchestrator) Collect(e *telemetry.Exposition) {
	type nfStateSample struct {
		graph, nf string
		state     NFState
	}
	type replicaSample struct {
		graph, nf string
		n         int
	}
	o.mu.Lock()
	switches := make([]*vswitch.Switch, 0, len(o.graphs)+1)
	switches = append(switches, o.lsi0.sw)
	graphNFs := make(map[string]int, len(o.graphs))
	var nfStates []nfStateSample
	var replicas []replicaSample
	for id, d := range o.graphs {
		switches = append(switches, d.lsi.sw)
		graphNFs[id] = len(d.nfs)
		for nfID, set := range d.nfs {
			nfStates = append(nfStates, nfStateSample{graph: id, nf: nfID, state: set.members[0].State()})
			replicas = append(replicas, replicaSample{graph: id, nf: nfID, n: len(set.members)})
		}
	}
	o.mu.Unlock()

	for _, sw := range switches {
		t := sw.Telemetry()
		l := telemetry.Labels{"lsi": o.lsiLabel(sw)}
		e.Counter("un_lsi_rx_packets_total", "Frames that entered the LSI pipeline.", l, t.Rx)
		// Tx and table matches are derived from per-port/per-entry counters
		// that leave with their port or flow entry, so the series can
		// decrease across a graph update: gauges, not counters.
		e.Gauge("un_lsi_tx_packets", "Frames transmitted out of currently-attached LSI ports.", l, float64(t.Tx))
		e.Counter("un_lsi_drops_total", "Frames dropped by the LSI (unknown port, unparseable, miss-drop).", l, t.Drops)
		e.Counter("un_lsi_misses_total", "Table-miss packets on the LSI.", l, t.Misses)
		e.Counter("un_switch_malformed_total", "Frames rejected by header parsing (counted as drops, not misses).", l, t.Malformed)
		e.Counter("un_cache_hits_total", "Microflow-cache hits.", l, t.Cache.Hits)
		e.Counter("un_cache_misses_total", "Microflow-cache misses (slow-path traversals).", l, t.Cache.Misses)
		e.Gauge("un_cache_entries", "Resident microflow-cache verdicts, valid or stale.", l, float64(t.Cache.Entries))
		// An LSI has one flow table; the label keeps dashboards that select
		// table="0" working.
		e.Gauge("un_table_matches", "Packets matched in the LSI's flow table, summed over the currently-installed entries.",
			telemetry.Labels{"lsi": l["lsi"], "table": "0"}, float64(t.TableMatches))
		e.Histogram("un_pipeline_latency_seconds", "Sampled per-packet pipeline latency.", l, t.Latency)
		burstBounds := vswitch.BurstBuckets()
		for wi, ws := range t.Workers {
			wl := telemetry.Labels{"lsi": l["lsi"], "worker": fmt.Sprintf("%d", wi)}
			e.Gauge("un_switch_worker_queue_depth", "Frames waiting in the datapath worker's RX ring.", wl, float64(ws.QueueLen))
			e.Gauge("un_switch_worker_busy", "1 while the datapath worker is processing, 0 while parked.", wl, boolGauge(ws.Busy))
			e.Counter("un_switch_worker_queue_drops_total", "Frames tail-dropped at the worker's full RX ring.", wl, ws.QueueDrops)
			e.Counter("un_switch_worker_packets_total", "Frames processed by the datapath worker.", wl, ws.Packets)
			e.Counter("un_switch_worker_tx_coalesced_total", "Frames transmitted through a coalesced per-port SendBatch flush.", wl, ws.TxCoalesced)
			e.Counter("un_switch_worker_tx_flushes_total", "Coalesced-TX SendBatch calls issued by the worker.", wl, ws.TxFlushes)
			for bi, count := range ws.BurstHist {
				bl := telemetry.Labels{"lsi": l["lsi"], "worker": wl["worker"], "size": fmt.Sprintf("%d", burstBounds[bi])}
				e.Counter("un_switch_worker_bursts_total", "Bursts drained by the worker, bucketed by burst size (label is the bucket's upper bound).", bl, count)
			}
		}
	}

	e.Gauge("un_graphs", "Deployed NF-FGs on the node.", nil, float64(len(graphNFs)))
	for id, n := range graphNFs {
		e.Gauge("un_nf_instances", "Running NF instances per graph.", telemetry.Labels{"graph": id}, float64(n))
	}
	for _, s := range replicas {
		e.Gauge("un_nf_replicas", "Instances currently serving the NF (scale-out shards).",
			telemetry.Labels{"graph": s.graph, "nf": s.nf}, float64(s.n))
	}
	for _, s := range nfStates {
		e.Gauge("un_nf_state",
			"Per-NF lifecycle state (0 pending, 1 starting, 2 attaching, 3 running, 4 draining, 5 stopped, 6 failed).",
			telemetry.Labels{"graph": s.graph, "nf": s.nf}, s.state.Value())
	}
	usedCPU, totalCPU, usedRAM, totalRAM := o.cfg.Resources.Usage()
	e.Gauge("un_cpu_millis_used", "CPU millicores charged on the node ledger.", nil, float64(usedCPU))
	e.Gauge("un_cpu_millis_total", "CPU millicore capacity of the node.", nil, float64(totalCPU))
	e.Gauge("un_ram_bytes_used", "RAM charged on the node ledger.", nil, float64(usedRAM))
	e.Gauge("un_ram_bytes_total", "RAM capacity of the node.", nil, float64(totalRAM))

	m := o.metrics
	e.Counter("un_deploys_total", "Graph deployments accepted.", nil, m.deploys.Value())
	e.Counter("un_deploy_failures_total", "Graph deployments rejected or rolled back.", nil, m.deployFailures.Value())
	e.Counter("un_updates_total", "In-place graph updates applied.", nil, m.updates.Value())
	e.Counter("un_update_failures_total", "In-place graph updates that failed.", nil, m.updateFailures.Value())
	e.Counter("un_undeploys_total", "Graphs undeployed.", nil, m.undeploys.Value())
	e.Counter("un_undeploy_failures_total", "Undeploys of graphs that were not deployed.", nil, m.undeployFailures.Value())
	e.Counter("un_reflavors_total", "NF flavor hot-swaps completed.", nil, m.reflavors.Value())
	e.Counter("un_reflavor_failures_total", "NF flavor hot-swaps that failed.", nil, m.reflavorFailures.Value())
	e.Counter("un_scales_total", "NF replica-set reshapes completed (scale-up, scale-down, repair).", nil, m.scales.Value())
	e.Counter("un_scale_failures_total", "NF replica-set reshapes that failed.", nil, m.scaleFailures.Value())
	e.Counter("un_migrated_flows_total", "Per-flow state entries moved between replicas.", nil, m.migratedFlows.Value())
	e.Counter("un_standby_promotions_total", "Standby instances promoted to active.", nil, m.promotions.Value())
	e.Counter("un_standby_synced_flows_total", "Per-flow state entries replicated to standbys.", nil, m.standbySyncedFlows.Value())
	e.Counter("un_nf_starts_total", "NF instances started.", nil, m.nfStarts.Value())
	e.Counter("un_nf_stops_total", "NF instances stopped.", nil, m.nfStops.Value())
	e.Counter("un_steering_rules_programmed_total", "Big-switch steering rules compiled onto LSIs.", nil, m.steeringRules.Value())
	e.Histogram("un_deploy_seconds", "Graph deployment wall time.", nil, m.deployLatency.Snapshot())
	e.Histogram("un_update_seconds", "Graph update wall time.", nil, m.updateLatency.Snapshot())
	e.Histogram("un_undeploy_seconds", "Graph undeploy wall time.", nil, m.undeployLatency.Snapshot())
	e.Histogram("un_reflavor_seconds", "NF flavor hot-swap wall time (start to drained).", nil, m.reflavorLatency.Snapshot())
	e.Histogram("un_scale_seconds", "NF replica-set reshape wall time.", nil, m.scaleLatency.Snapshot())
	e.Histogram("un_state_migration_seconds", "Flow-state migration wall time (first export to last import).", nil, m.migrationLatency.Snapshot())
	e.Counter("un_journal_events_total", "Events ever recorded in the node journal.", nil, o.journal.Total())
}
