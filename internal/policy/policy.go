// Package policy implements the placement policy engine shared by the local
// orchestrator (which picks an execution technology per NF on one node) and
// the global orchestrator (which picks a hosting node per NF across the
// fleet). Both decisions are the same shape — order a set of feasible
// candidates, each carrying a resource demand, a modeled per-packet cost and
// the headroom of the host it would land on — so one PlacementPolicy ranks
// them for both callers.
//
// Three policies ship:
//
//   - FirstFit: submission order (the caller's static preference: the
//     paper's native > docker > dpdk > vm for flavors, name order for
//     nodes), co-location first. The deploy-time default of the seed.
//   - BinPack: capacity-aware. Chain co-location first, then link-local
//     hosts, then the candidate leaving the most CPU headroom.
//   - CostDriven: minimizes modeled CPU consumption, combining the
//     execenv.CostModel per-packet cost with the observed packet rate of
//     the graph (from internal/telemetry counters): reserved millicores
//     count as idle burn, per-packet cost scales with traffic. Under no
//     load the lightest flavor wins; under load the fastest one does.
package policy

import (
	"fmt"
	"slices"

	"repro/internal/execenv"
	"repro/internal/nffg"
)

// RefFrameBytes is the frame size candidate per-packet costs are quoted at
// (the paper's MTU-sized validation frames).
const RefFrameBytes = 1500

// Candidate is one feasible placement option for an NF: a flavor on the
// local node, or a hosting node for the global scheduler. Submission order
// carries the caller's static preference; policies sort stably, so equal
// candidates keep it.
type Candidate struct {
	// Tech is the execution technology this candidate runs as (flavor
	// decisions; zero for node-only decisions).
	Tech nffg.Technology
	// Node is the hosting node (node decisions; empty for single-node
	// flavor decisions).
	Node string
	// CPUMillis is the ledger charge the candidate would reserve.
	CPUMillis int
	// RAMBytes is the runtime footprint the candidate would occupy
	// (flavor base plus workload).
	RAMBytes uint64
	// CostNs is the modeled per-packet processing cost at RefFrameBytes.
	CostNs float64
	// FreeCPUMillis and FreeRAMBytes are the host's headroom before the
	// charge.
	FreeCPUMillis int
	FreeRAMBytes  uint64
	// Colocated marks the host already holding the previous NF of the
	// chain (node decisions).
	Colocated bool
	// Linked marks a host directly linked to the chain's current node
	// (node decisions; always true for single-node decisions).
	Linked bool
	// HostRatePPS is the host's observed aggregate packet rate
	// (packets/second across its deployed graphs), 0 when unknown. The
	// M/M/1 latency predictor combines it with CostNs to demote hosts
	// already operating near saturation.
	HostRatePPS float64
}

// Request is the context of one placement question.
type Request struct {
	// GraphID and NFID identify the NF being placed.
	GraphID string
	NFID    string
	// RatePPS is the observed packet rate of the graph's datapath
	// (packets/second), 0 when unknown (e.g. at first deploy).
	RatePPS float64
}

// PlacementPolicy orders feasible candidates best-first. Implementations
// must not mutate the input slice and must be safe for concurrent use.
type PlacementPolicy interface {
	// Name identifies the policy ("first-fit", "bin-pack", "cost").
	Name() string
	// Rank returns the candidates ordered best-first. Feasibility is the
	// caller's job: every candidate passed in is deployable.
	Rank(req Request, cands []Candidate) []Candidate
}

// FlavorOf maps an NF-FG execution technology to its execution-environment
// flavor, for cost-model lookups.
func FlavorOf(t nffg.Technology) execenv.Flavor {
	switch t {
	case nffg.TechVM:
		return execenv.FlavorVM
	case nffg.TechDocker:
		return execenv.FlavorDocker
	case nffg.TechDPDK:
		return execenv.FlavorDPDK
	default:
		return execenv.FlavorNative
	}
}

// rank stable-sorts a copy of cands by less.
func rank(cands []Candidate, less func(a, b Candidate) bool) []Candidate {
	out := append([]Candidate(nil), cands...)
	slices.SortStableFunc(out, func(a, b Candidate) int {
		switch {
		case less(a, b):
			return -1
		case less(b, a):
			return 1
		}
		return 0
	})
	return out
}

// boolRank orders true before false.
func boolRank(a, b bool) (dominates, dominated bool) {
	return a && !b, b && !a
}

// FirstFit keeps the caller's submission order, co-located hosts first: the
// static preference list decides, capacity only gates feasibility.
type FirstFit struct{}

// Name implements PlacementPolicy.
func (FirstFit) Name() string { return "first-fit" }

// Rank implements PlacementPolicy.
func (FirstFit) Rank(_ Request, cands []Candidate) []Candidate {
	return rank(cands, func(a, b Candidate) bool {
		return a.Colocated && !b.Colocated
	})
}

// BinPack is the capacity-aware packer: chain co-location first (no stitch
// at all beats any stitch), link-local hosts second (one hop beats a relay),
// then the candidate leaving the most CPU headroom after the charge — which
// picks the cheapest flavor on one node and the roomiest node across a
// fleet. RAM headroom breaks ties.
type BinPack struct{}

// Name implements PlacementPolicy.
func (BinPack) Name() string { return "bin-pack" }

// Rank implements PlacementPolicy.
func (BinPack) Rank(_ Request, cands []Candidate) []Candidate {
	return rank(cands, func(a, b Candidate) bool {
		if win, lose := boolRank(a.Colocated, b.Colocated); win || lose {
			return win
		}
		if win, lose := boolRank(a.Linked, b.Linked); win || lose {
			return win
		}
		if win, lose := boolRank(!Saturated(a), !Saturated(b)); win || lose {
			return win
		}
		al := a.FreeCPUMillis - a.CPUMillis
		bl := b.FreeCPUMillis - b.CPUMillis
		if al != bl {
			return al > bl
		}
		return a.FreeRAMBytes-a.RAMBytes > b.FreeRAMBytes-b.RAMBytes
	})
}

// cpuNsPerMillicoreSecond converts a millicore reservation into nanoseconds
// of CPU per wall second: 1 millicore = 1e6 ns/s.
const cpuNsPerMillicoreSecond = 1e6

// Score is the CostDriven objective for one candidate at the given rate:
// the modeled CPU nanoseconds per second the placement would consume —
// reservation burn plus per-packet work; CostDriven ranks candidates by it.
func Score(c Candidate, ratePPS float64) float64 {
	return float64(c.CPUMillis)*cpuNsPerMillicoreSecond + c.CostNs*ratePPS
}

// CostDriven minimizes modeled CPU consumption: per-packet cost from the
// execenv cost model times the observed packet rate, plus the reservation.
// Co-location and link locality still dominate for node decisions — a
// cheaper flavor is no use if reaching it costs a multi-hop stitch.
type CostDriven struct{}

// Name implements PlacementPolicy.
func (CostDriven) Name() string { return "cost" }

// Rank implements PlacementPolicy.
func (CostDriven) Rank(req Request, cands []Candidate) []Candidate {
	return rank(cands, func(a, b Candidate) bool {
		if win, lose := boolRank(a.Colocated, b.Colocated); win || lose {
			return win
		}
		if win, lose := boolRank(a.Linked, b.Linked); win || lose {
			return win
		}
		if win, lose := boolRank(!Saturated(a), !Saturated(b)); win || lose {
			return win
		}
		return Score(a, req.RatePPS) < Score(b, req.RatePPS)
	})
}

// ByName resolves a policy by its knob value. The empty name picks
// first-fit, the seed's behavior.
func ByName(name string) (PlacementPolicy, error) {
	switch name {
	case "", "first-fit":
		return FirstFit{}, nil
	case "bin-pack":
		return BinPack{}, nil
	case "cost":
		return CostDriven{}, nil
	}
	return nil, fmt.Errorf("policy: unknown placement policy %q (want first-fit, bin-pack or cost)", name)
}
