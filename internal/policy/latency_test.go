package policy

import (
	"math"
	"testing"

	"repro/internal/nffg"
)

func TestUtilization(t *testing.T) {
	// 1000 ns/packet service time => mu = 1 Mpps.
	c := Candidate{CostNs: 1000, HostRatePPS: 500_000}
	if got := Utilization(c, 0); got != 0.5 {
		t.Fatalf("rho = %g, want 0.5", got)
	}
	if got := Utilization(c, 400_000); got != 0.9 {
		t.Fatalf("rho with added rate = %g, want 0.9", got)
	}
	// Missing data never demotes.
	if got := Utilization(Candidate{HostRatePPS: 1e9}, 0); got != 0 {
		t.Fatalf("rho without cost model = %g, want 0", got)
	}
	if got := Utilization(Candidate{CostNs: 1000}, 0); got != 0 {
		t.Fatalf("rho on an idle host = %g, want 0", got)
	}
}

func TestPredictedWaitNs(t *testing.T) {
	c := Candidate{CostNs: 1000}
	// Idle: sojourn time is the bare service time.
	if got := predictedWaitNs(c, 0); got != 1000 {
		t.Fatalf("idle wait = %g ns, want 1000", got)
	}
	// At rho 0.9 the M/M/1 sojourn is 10x the service time.
	c.HostRatePPS = 900_000
	if got := predictedWaitNs(c, 0); math.Abs(got-10_000) > 1e-6 {
		t.Fatalf("wait at rho 0.9 = %g ns, want 10000", got)
	}
	// At or past saturation there is no steady state.
	c.HostRatePPS = 1_000_000
	if got := predictedWaitNs(c, 0); !math.IsInf(got, 1) {
		t.Fatalf("wait at rho 1 = %g, want +Inf", got)
	}
}

func TestSaturatedThreshold(t *testing.T) {
	c := Candidate{CostNs: 1000, HostRatePPS: 899_999}
	if Saturated(c) {
		t.Fatal("rho just under 0.9 flagged saturated")
	}
	c.HostRatePPS = 900_000
	if !Saturated(c) {
		t.Fatal("rho 0.9 not flagged saturated")
	}
}

// TestRankingDemotesSaturatedHosts: both load-aware policies must rank a
// near-saturated host below an unsaturated one even when the saturated
// host has far more ledger headroom — headroom on paper is worthless when
// the datapath has no service capacity left.
func TestRankingDemotesSaturatedHosts(t *testing.T) {
	saturated := Candidate{
		Node: "hot", Tech: nffg.TechDocker, CPUMillis: 500,
		FreeCPUMillis: 15_000, Linked: true,
		CostNs: 1000, HostRatePPS: 950_000, // rho 0.95
	}
	calm := Candidate{
		Node: "calm", Tech: nffg.TechDocker, CPUMillis: 500,
		FreeCPUMillis: 1_000, Linked: true,
		CostNs: 1000, HostRatePPS: 100_000, // rho 0.1
	}
	for _, pol := range []PlacementPolicy{BinPack{}, CostDriven{}} {
		got := pol.Rank(Request{}, []Candidate{saturated, calm})
		if got[0].Node != "calm" {
			t.Errorf("%T ranked the saturated host first: %v", pol, got)
		}
	}
	// Co-location still dominates saturation: staying on-node avoids a
	// stitch, which the ranking prices above queueing delay.
	saturated.Colocated = true
	got := BinPack{}.Rank(Request{}, []Candidate{saturated, calm})
	if got[0].Node != "hot" {
		t.Errorf("co-located saturated host demoted below remote: %v", got)
	}
}
