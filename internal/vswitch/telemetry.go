package vswitch

import "repro/internal/telemetry"

// Telemetry is the full observability snapshot of one switch: the per-LSI
// traffic counters, the microflow-cache state, per-table match counts, the
// sampled packet-latency histogram and — for a worker-pool switch — the
// per-worker queue state.
type Telemetry struct {
	// Name is the switch name.
	Name string
	// Rx counts frames that completed the pipeline (counted once their
	// burst's egress has been flushed), summed across datapath lanes.
	// Frames tail-dropped at a full worker ring are not included (see
	// Workers[].QueueDrops).
	Rx uint64
	// Tx counts frames transmitted out of ports (a flood counts once per
	// egress port). Derived at snapshot time from the per-port netdev
	// counters the send path maintains anyway, so the packet path pays no
	// extra atomic for it; detached ports take their counts with them.
	Tx uint64
	// Drops counts frames discarded: unknown egress port, malformed frame,
	// full worker ring, or a table miss under the drop policy.
	Drops uint64
	// Misses counts table-miss packets regardless of policy. Malformed
	// frames are not misses: they never consulted the tables.
	Misses uint64
	// Malformed counts received frames rejected by header parsing.
	Malformed uint64
	// TableMatches holds, per table, how many packets matched an entry
	// there. Derived at snapshot time from the per-entry hit counters, so
	// the packet path pays nothing for it; entries deleted from a table
	// take their counts with them.
	TableMatches []uint64
	// Cache is the microflow-cache counter snapshot.
	Cache CacheStats
	// Latency is the sampled per-packet pipeline latency, in seconds: the
	// burst that carries a lane's frame count across a multiple of 1024 is
	// timed, egress flush included, and recorded as a per-frame average.
	Latency telemetry.HistogramSnapshot
	// Workers holds per-worker queue depth and activity; nil for a switch
	// without workers.
	Workers []WorkerStats
}

// Telemetry snapshots the switch's counters. Safe to call concurrently with
// traffic; the per-lane datapath counters are aggregated here, at scrape
// time, so the packet path never shares counter cache lines across cores.
func (s *Switch) Telemetry() Telemetry {
	t := Telemetry{
		Name:    s.name,
		Cache:   s.CacheStats(),
		Latency: s.latency.Snapshot(),
		Workers: s.WorkerTelemetry(),
	}
	s.eachCtrs(func(c *dpCounters) {
		t.Rx += c.pipeline.Load()
		t.Drops += c.drops.Load()
		t.Misses += c.misses.Load()
		t.Malformed += c.malformed.Load()
	})
	for _, p := range s.ports.Load().ports {
		t.Tx += p.Stats().TxPackets
	}
	tables := s.tables.Load().tables
	t.TableMatches = make([]uint64, len(tables))
	for ti, entries := range tables {
		for _, e := range entries {
			p, _ := e.Stats()
			t.TableMatches[ti] += p
		}
	}
	return t
}
