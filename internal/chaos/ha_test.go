package chaos

import (
	"testing"
	"time"

	"repro/internal/telemetry"
)

// Under HA a node's death is the leader's reconcile probe: the leader
// marks the node dead and journals it within a few probe intervals, and a
// successor promoted after a leader kill sees it dead after its first
// reconcile pass.
func TestHANodeDeathSeenByLeaderAndSuccessor(t *testing.T) {
	r, err := newHARig(&Options{Logf: t.Logf}, 3)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	lead, err := r.waitLeader(5*time.Second, "")
	if err != nil {
		t.Fatal(err)
	}
	if err := r.orchs[lead].AddNode(r.f.locals[haNode]); err != nil {
		t.Fatal(err)
	}
	// seesDead waits up to budget for replica id to list the node dead
	// and to have journalled its death, and returns how long that took.
	seesDead := func(id string, budget time.Duration) time.Duration {
		t.Helper()
		start := time.Now()
		for {
			nodes := r.orchs[id].ListNodes()
			dead := len(nodes) == 1 && !nodes[0].Alive
			journalled := false
			for _, ev := range r.orchs[id].Journal().Events() {
				journalled = journalled || ev.Type == telemetry.EventNodeDead && ev.Node == haNode
			}
			if dead && journalled {
				return time.Since(start)
			}
			if time.Since(start) > budget {
				t.Fatalf("replica %s: node %s dead=%v, node-dead journalled=%v after %v", id, haNode, dead, journalled, budget)
			}
			time.Sleep(time.Millisecond)
		}
	}

	r.f.locals[haNode].SetDown(true)
	t.Logf("leader %s saw node death in %v", lead, seesDead(lead, 10*haProbe))

	r.net.SetDown(lead, true)
	succ, err := r.waitLeader(5*time.Second, lead)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("successor %s saw node death %v after promotion", succ, seesDead(succ, 10*haProbe))
}
