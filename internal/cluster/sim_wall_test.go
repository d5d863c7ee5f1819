//go:build !race

// The race detector slows every event several times: wall time is gated
// only without it.

package cluster

import (
	"fmt"
	"testing"
	"time"
)

// A 3-replica cluster elects and commits 1 000 ops in virtual time, in
// well under a second of wall time.
func TestSimThousandOps(t *testing.T) {
	start := time.Now()
	runSeed(t, 1, abc, nil, func(s *sim) error {
		s.start()
		lead, err := s.settle()
		if err != nil {
			return err
		}
		for i := 0; i < 1000; i++ {
			if err := s.record(lead, OpUpdate, fmt.Sprint("g", i%16), fmt.Sprintf(`{"i":%d}`, i)); err != nil {
				return fmt.Errorf("record %d: %v", i, err)
			}
		}
		if got := lead.CommitSeq(); got != 1000 {
			return fmt.Errorf("commit %d, want 1000", got)
		}
		return s.runUntil(time.Second, "followers converged", func() bool { return s.converged(lead) })
	})
	wall := time.Since(start)
	t.Logf("elected and committed 1000 ops in %v of wall time", wall)
	if wall > time.Second {
		t.Errorf("1000 ops took %v of wall time, want < 1s", wall)
	}
}
