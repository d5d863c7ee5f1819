package policy

import "math"

// M/M/1-fed latency prediction: each candidate host is modeled as a single
// queueing station whose service time is the candidate's modeled per-packet
// cost (CostNs) and whose arrival rate is the host's observed aggregate
// packet rate plus the rate the placement would add. The predicted
// per-packet sojourn time W = 1/(mu - lambda) explodes as utilization
// rho = lambda/mu approaches 1, which is exactly the signal placement
// needs: a node with plenty of ledger headroom can still be a terrible
// host if its datapath is near saturation. The model is deliberately the
// simplest one the observed service rates can feed — PAPERS.md
// "Analytical Modeling for Virtualized Network Functions" motivates
// queueing-theoretic sizing, and M/M/1 is its first-order term.

// SaturationRho is the utilization at which a candidate is demoted:
// beyond rho = 0.9 the M/M/1 wait grows hyperbolically (10x the idle
// sojourn time), so the ranking treats such hosts as last-resort.
const SaturationRho = 0.9

// Utilization returns the predicted M/M/1 utilization rho of the candidate
// host if the placement lands there: observed host arrivals plus the new
// graph's rate, against the candidate's modeled service rate. Unknown
// rates or costs yield 0 (no demotion on missing data).
func Utilization(c Candidate, addPPS float64) float64 {
	if c.CostNs <= 0 {
		return 0
	}
	mu := 1e9 / c.CostNs // packets/second the station can serve
	lambda := c.HostRatePPS + addPPS
	if lambda <= 0 {
		return 0
	}
	return lambda / mu
}

// predictedWaitNs returns the M/M/1 sojourn time (queueing + service) in
// nanoseconds for the candidate host at the given added rate. A saturated
// or oversaturated station (rho >= 1) predicts +Inf: the queue has no
// steady state.
func predictedWaitNs(c Candidate, addPPS float64) float64 {
	if c.CostNs <= 0 {
		return 0
	}
	mu := 1e9 / c.CostNs
	lambda := c.HostRatePPS + addPPS
	if lambda >= mu {
		return math.Inf(1)
	}
	return 1e9 / (mu - lambda)
}

// Saturated reports whether the candidate host would operate at or beyond
// SaturationRho, the point where BinPack and CostDriven demote it below
// every unsaturated candidate regardless of headroom.
func Saturated(c Candidate) bool {
	return Utilization(c, 0) >= SaturationRho
}
