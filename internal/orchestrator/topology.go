package orchestrator

import (
	"fmt"
	"maps"
	"slices"
	"strings"

	"repro/internal/vswitch"
)

// Topology is a snapshot of the node's runtime object graph — the live
// counterpart of the paper's Figure 1.
type Topology struct {
	NodeName   string
	Interfaces []string
	LSI0       LSIInfo
	Graphs     []GraphInfo
}

// LSIInfo describes one switch, including its fast-path microflow-cache
// counters alongside the flow-table size.
type LSIInfo struct {
	Name  string
	DPID  uint64
	Ports []uint32
	Flows int
	Cache vswitch.CacheStats
}

// lsiInfo snapshots one switch into an LSIInfo.
func lsiInfo(sw *vswitch.Switch) LSIInfo {
	return LSIInfo{
		Name:  sw.Name(),
		DPID:  sw.DPID(),
		Ports: sw.Ports(),
		Flows: sw.FlowCount(),
		Cache: sw.CacheStats(),
	}
}

// GraphInfo describes one deployed graph.
type GraphInfo struct {
	ID  string
	LSI LSIInfo
	NFs []NFInfo
}

// NFInfo describes one running NF.
type NFInfo struct {
	ID         string
	Instance   string
	Technology string
	// State is the NF's lifecycle state ("running", "draining", ...).
	State    string
	Shared   bool
	RAMBytes uint64
}

// Topology captures the current node state.
func (o *Orchestrator) Topology() Topology {
	o.mu.Lock()
	defer o.mu.Unlock()
	t := Topology{
		NodeName:   o.cfg.NodeName,
		Interfaces: append([]string(nil), o.cfg.Interfaces...),
		LSI0:       lsiInfo(o.lsi0.sw),
	}
	for _, id := range slices.Sorted(maps.Keys(o.graphs)) {
		d := o.graphs[id]
		gi := GraphInfo{
			ID:  id,
			LSI: lsiInfo(d.lsi.sw),
		}
		for _, nfID := range slices.Sorted(maps.Keys(d.nfs)) {
			gi.NFs = append(gi.NFs, nfInfo(nfID, d.nfs[nfID]))
		}
		t.Graphs = append(t.Graphs, gi)
	}
	return t
}

// nfInfo describes an NF by its set's first member.
func nfInfo(nfID string, set *nfSet) NFInfo {
	att := set.members[0]
	return NFInfo{
		ID:         nfID,
		Instance:   att.inst.Runtime.Name(),
		Technology: string(att.inst.Technology),
		State:      string(att.State()),
		Shared:     att.inst.Shared,
		RAMBytes:   att.inst.RAM(),
	}
}

// NodeStatus is what a status probe reports of the node: its ledger, its
// interfaces, its graphs and the state of each of their NFs.
type NodeStatus struct {
	NodeName string
	// Interfaces is the node's configured interface list, shared with the
	// node: callers must not modify it.
	Interfaces        []string
	UsedCPU, TotalCPU int
	UsedRAM, TotalRAM uint64
	// Graphs lists the deployed graph ids, sorted.
	Graphs []string
	// NFs lists every NF of every graph, by graph id then NF id.
	NFs []NFStatus
	// RatePPS is the node's observed aggregate datapath packet rate (see
	// TotalRatePPS).
	RatePPS float64
}

// NFStatus is one NF of a deployed graph.
type NFStatus struct {
	Graph string
	NFInfo
	// Replicas is how many instances serve the NF.
	Replicas int
	// Standby reports whether a warm standby shadows the NF.
	Standby bool
}

// Status reads what the node keeps — ledger usage, interface names, graph
// ids and per-NF state — without rendering the Topology: no flow table is
// counted or cloned, no port list is built. It allocates one slice of graph
// ids and one of NF records, however many graphs are deployed.
func (o *Orchestrator) Status() NodeStatus {
	st := NodeStatus{NodeName: o.cfg.NodeName}
	if len(o.cfg.Interfaces) > 0 {
		st.Interfaces = o.cfg.Interfaces
	}
	st.UsedCPU, st.TotalCPU, st.UsedRAM, st.TotalRAM = o.cfg.Resources.Usage()
	o.mu.Lock()
	defer o.mu.Unlock()
	st.Graphs = make([]string, 0, len(o.graphs))
	nfs := 0
	for id, d := range o.graphs {
		st.Graphs = append(st.Graphs, id)
		nfs += len(d.nfs)
		st.RatePPS += o.observedRateLocked(id)
	}
	slices.Sort(st.Graphs)
	if nfs == 0 {
		return st
	}
	st.NFs = make([]NFStatus, 0, nfs)
	for _, id := range st.Graphs {
		from := len(st.NFs)
		for nfID, set := range o.graphs[id].nfs {
			st.NFs = append(st.NFs, NFStatus{Graph: id, NFInfo: nfInfo(nfID, set),
				Replicas: len(set.members), Standby: set.standby != nil})
		}
		slices.SortFunc(st.NFs[from:], func(a, b NFStatus) int { return strings.Compare(a.ID, b.ID) })
	}
	return st
}

// DOT renders the topology in Graphviz format, regenerating the structure
// of the paper's Figure 1 from the live node.
func (t Topology) DOT() string {
	var b strings.Builder
	fmt.Fprintf(&b, "digraph %q {\n  rankdir=BT;\n", t.NodeName)
	fmt.Fprintf(&b, "  lsi0 [shape=box label=\"LSI-0\\n%s (dpid %#x)\\n%d flows\"];\n",
		t.LSI0.Name, t.LSI0.DPID, t.LSI0.Flows)
	for _, ifName := range t.Interfaces {
		id := sanitizeDOT("if_" + ifName)
		fmt.Fprintf(&b, "  %s [shape=ellipse label=%q];\n  %s -> lsi0;\n", id, ifName, id)
	}
	for _, g := range t.Graphs {
		gid := sanitizeDOT("lsi_" + g.ID)
		fmt.Fprintf(&b, "  %s [shape=box label=\"LSI %s (dpid %#x)\\n%d flows\"];\n",
			gid, g.ID, g.LSI.DPID, g.LSI.Flows)
		fmt.Fprintf(&b, "  lsi0 -> %s [dir=both label=\"virtual link\"];\n", gid)
		for _, n := range g.NFs {
			nid := sanitizeDOT("nf_" + g.ID + "_" + n.ID)
			shape := "component"
			kind := strings.ToUpper(n.Technology)
			if n.Technology == "native" {
				kind = "NNF"
			}
			label := fmt.Sprintf("%s\\n%s (%s)", n.ID, kind, fmtMB(n.RAMBytes))
			if n.Shared {
				label += "\\n[shared]"
				fmt.Fprintf(&b, "  %s [shape=%s label=\"%s\"];\n  lsi0 -> %s [dir=both];\n",
					nid, shape, label, nid)
			} else {
				fmt.Fprintf(&b, "  %s [shape=%s label=\"%s\"];\n  %s -> %s [dir=both];\n",
					nid, shape, label, gid, nid)
			}
		}
	}
	b.WriteString("}\n")
	return b.String()
}

// String renders the topology as indented text.
func (t Topology) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "NFV Compute Node %q\n", t.NodeName)
	fmt.Fprintf(&b, "  %s  dpid=%#x ports=%v flows=%d\n",
		t.LSI0.Name, t.LSI0.DPID, t.LSI0.Ports, t.LSI0.Flows)
	for _, ifName := range t.Interfaces {
		fmt.Fprintf(&b, "    interface %s\n", ifName)
	}
	for _, g := range t.Graphs {
		fmt.Fprintf(&b, "  graph %s: %s dpid=%#x ports=%v flows=%d\n",
			g.ID, g.LSI.Name, g.LSI.DPID, g.LSI.Ports, g.LSI.Flows)
		for _, n := range g.NFs {
			shared := ""
			if n.Shared {
				shared = " [shared NNF on LSI-0]"
			}
			fmt.Fprintf(&b, "    NF %s -> %s (%s, %s)%s\n",
				n.ID, n.Instance, n.Technology, fmtMB(n.RAMBytes), shared)
		}
	}
	return b.String()
}

func fmtMB(b uint64) string {
	return fmt.Sprintf("%.1f MB", float64(b)/(1<<20))
}

func sanitizeDOT(s string) string {
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '_':
			return r
		default:
			return '_'
		}
	}, s)
}
