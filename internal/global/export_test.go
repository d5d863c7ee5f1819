package global

import (
	"fmt"
	"sort"
	"strings"
)

// heldHops lists the stitch VLANs the allocator holds, as sorted
// "<link>#<vlan>" keys.
func heldHops(o *Orchestrator) []string {
	out := []string{}
	for link, set := range o.alloc.inUse {
		for vlan, used := range set {
			if used {
				out = append(out, fmt.Sprintf("%s#%d", link, vlan))
			}
		}
	}
	sort.Strings(out)
	return out
}

// hopKeys lists the stitch hops the deployments ride, each once, in the form
// of heldHops.
func hopKeys(deps ...*deployment) []string {
	seen := make(map[string]bool)
	for _, d := range deps {
		for _, st := range d.stitchSet() {
			for _, h := range st.Hops {
				seen[fmt.Sprintf("%s#%d", h.Link.key(), h.VLAN)] = true
			}
		}
	}
	return sortedKeys(seen)
}

// StitchLedger returns the stitch VLANs the orchestrator's allocator holds and
// the hops its deployed graphs ride, in one sorted form: with nothing parked,
// the two are equal.
func StitchLedger(o *Orchestrator) (held, live []string) {
	o.mu.Lock()
	defer o.mu.Unlock()
	deps := make([]*deployment, 0, len(o.graphs))
	for _, d := range o.graphs {
		deps = append(deps, d)
	}
	return heldHops(o), hopKeys(deps...)
}

// Stitches prints the stitches graph id rides.
func Stitches(o *Orchestrator, id string) string {
	o.mu.Lock()
	defer o.mu.Unlock()
	return fmt.Sprintf("%+v", o.graphs[id].stitchSet())
}

// FollowerView renders what an orchestrator's bookkeeping holds of the
// intent store: each graph's record bytes (placement and stitches
// included), the links in order, the node names and the stitch VLANs the
// allocator holds.
func FollowerView(o *Orchestrator) string {
	o.mu.Lock()
	defer o.mu.Unlock()
	var b strings.Builder
	for _, id := range sortedKeys(o.graphs) {
		rec, err := encodeRecord(o.graphs[id])
		fmt.Fprintf(&b, "graph %s %s %v\n", id, rec, err)
	}
	for _, l := range o.links {
		fmt.Fprintf(&b, "link %s\n", l.key())
	}
	for _, name := range sortedKeys(o.members) {
		fmt.Fprintf(&b, "node %s\n", name)
	}
	for _, h := range heldHops(o) {
		fmt.Fprintf(&b, "vlan %s\n", h)
	}
	return b.String()
}
