package orchestrator

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/nffg"
	"repro/internal/openflow"
	"repro/internal/pkt"
	"repro/internal/vswitch"
)

// compileEntries compiles the graph's big-switch flow rules into the whole
// entry set of the graph's LSI, against its current spec and instance sets.
// Each entry is encoded straight into the wire form of the commit that
// program sends; nothing is installed.
func (o *Orchestrator) compileEntries(d *DeployedGraph) (openflow.Entries, error) {
	es := openflow.NewEntries(len(d.Graph.Rules))
	var actBuf, entryBuf [8]vswitch.Action
	for _, r := range d.Graph.Rules {
		actions, err := o.compileActions(d, actBuf[:0], r.Actions)
		if err != nil {
			return es, fmt.Errorf("orchestrator: graph %q rule %q: %w", d.Graph.ID, r.ID, err)
		}
		// A rule whose ingress is an NF expands to one entry per instance
		// that may emit: any member's emission matches the same downstream
		// path, and so does a draining instance's until it is detached.
		ingress := []*nfAttachment{nil}
		if r.Match.PortIn.IsNF() {
			set, ok := d.nfs[r.Match.PortIn.NF]
			if !ok {
				return es, fmt.Errorf("orchestrator: graph %q rule %q: NF %q not attached", d.Graph.ID, r.ID, r.Match.PortIn.NF)
			}
			ingress = append(set.members[:len(set.members):len(set.members)], set.draining...)
		}
		for _, att := range ingress {
			match, pop, err := o.compileMatch(d, r.Match, att)
			if err != nil {
				return es, fmt.Errorf("orchestrator: graph %q rule %q: %w", d.Graph.ID, r.ID, err)
			}
			entry := actions
			if pop {
				entry = append(append(entryBuf[:0], vswitch.PopVLAN()), actions...)
			}
			es.Add(r.Priority, match, entry...)
		}
	}
	return es, nil
}

// program is the traffic steering manager: it compiles the graph's
// big-switch flow rules and commits them as the whole entry set of the
// graph's LSI, one table publish. Every change to a graph's steering —
// deploy, update, scale, reflavor, promotion, repair — is this call. Once
// it commits, no entry names a port removed from the LSI before it, so
// their numbers are freed. Callers hold o.mu.
func (o *Orchestrator) program(d *DeployedGraph) error {
	es, err := o.compileEntries(d)
	if err != nil {
		return err
	}
	if err := d.lsi.ctrl.Commit(d.cookie, &es); err != nil {
		return err
	}
	d.lsi.freeHeld()
	return nil
}

// nfPortIndex resolves an NF-FG port id to the NF's port index.
func nfPortIndex(g *nffg.Graph, nfID, portID string) (int, error) {
	n := g.FindNF(nfID)
	if n == nil {
		return 0, fmt.Errorf("unknown NF %q", nfID)
	}
	for i, p := range n.Ports {
		if p.ID == portID {
			return i, nil
		}
	}
	return 0, fmt.Errorf("NF %q has no port %q", nfID, portID)
}

// compileMatch turns a rule selector into a switch match, and says whether
// a tag pop must run before the rule's actions (shared NNF returns). A
// selector whose ingress is an NF is compiled against att, the instance of
// that NF the entry is for.
func (o *Orchestrator) compileMatch(d *DeployedGraph, m nffg.RuleMatch, att *nfAttachment) (match vswitch.Match, pop bool, err error) {
	if m.EtherType != 0 {
		match = match.WithEthType(pkt.EthernetType(m.EtherType))
	}
	if m.VLANID != 0 {
		match = match.WithVLAN(m.VLANID)
	}
	if m.IPProto != 0 {
		match = match.WithIPProto(pkt.IPProtocol(m.IPProto))
	}
	if m.IPSrc != "" {
		addr, bits, err := parseCIDR(m.IPSrc)
		if err != nil {
			return match, false, err
		}
		match = match.WithIPSrc(addr, bits)
	}
	if m.IPDst != "" {
		addr, bits, err := parseCIDR(m.IPDst)
		if err != nil {
			return match, false, err
		}
		match = match.WithIPDst(addr, bits)
	}
	if m.L4Src != 0 {
		match = match.WithL4Src(m.L4Src)
	}
	if m.L4Dst != 0 {
		match = match.WithL4Dst(m.L4Dst)
	}

	switch {
	case m.PortIn.IsEndpoint():
		att, ok := d.eps[m.PortIn.Endpoint]
		if !ok {
			return match, false, fmt.Errorf("endpoint %q not attached", m.PortIn.Endpoint)
		}
		match = match.WithInPort(att.graphPort)
	case m.PortIn.IsNF():
		idx, err := nfPortIndex(d.Graph, m.PortIn.NF, m.PortIn.Port)
		if err != nil {
			return match, false, err
		}
		if att.inst.Shared {
			if m.VLANID != 0 {
				return match, false, fmt.Errorf("vlan match not supported on shared-NNF port %v", m.PortIn)
			}
			// Traffic processed by the shared NNF returns from LSI-0
			// carrying the graph's egress mark; match it and strip it.
			return match.WithInPort(att.nnfVlink).WithVLAN(att.inst.OutMarks[idx]), true, nil
		}
		match = match.WithInPort(att.lsiPorts[idx])
	default:
		return match, false, fmt.Errorf("rule has no port_in")
	}
	return match, false, nil
}

// compileActions appends the switch actions of rule actions to out.
func (o *Orchestrator) compileActions(d *DeployedGraph, out []vswitch.Action, actions []nffg.RuleAction) ([]vswitch.Action, error) {
	for _, a := range actions {
		switch a.Type {
		case nffg.ActOutput:
			switch {
			case a.Output.IsEndpoint():
				att, ok := d.eps[a.Output.Endpoint]
				if !ok {
					return nil, fmt.Errorf("endpoint %q not attached", a.Output.Endpoint)
				}
				out = append(out, vswitch.Output(att.graphPort))
			case a.Output.IsNF():
				set, ok := d.nfs[a.Output.NF]
				if !ok {
					return nil, fmt.Errorf("NF %q not attached", a.Output.NF)
				}
				idx, err := nfPortIndex(d.Graph, a.Output.NF, a.Output.Port)
				if err != nil {
					return nil, err
				}
				att := set.members[0]
				switch {
				case len(set.members) > 1:
					// Shard over the NF's members: every flow bucket maps
					// to its owning member's LSI port for this logical
					// port. The bucket hash is symmetric, so both directions
					// of a connection land on the same member.
					var ports [vswitch.NumStateBuckets]uint32
					for b := range ports {
						ports[b] = set.members[set.owner(b)].lsiPorts[idx]
					}
					out = append(out, vswitch.SelectBucket(ports))
				case att.inst.Shared:
					// Tag with the graph's ingress mark for that
					// logical port and ship to LSI-0.
					out = append(out,
						vswitch.PushVLAN(att.inst.InMarks[idx]),
						vswitch.Output(att.nnfVlink))
				default:
					out = append(out, vswitch.Output(att.lsiPorts[idx]))
				}
			default:
				return nil, fmt.Errorf("output action without destination")
			}
		case nffg.ActPushVLAN:
			out = append(out, vswitch.PushVLAN(a.VLANID))
		case nffg.ActPopVLAN:
			out = append(out, vswitch.PopVLAN())
		case nffg.ActSetEthSrc:
			mac, err := pkt.ParseMAC(a.MAC)
			if err != nil {
				return nil, err
			}
			out = append(out, vswitch.SetEthSrc(mac))
		case nffg.ActSetEthDst:
			mac, err := pkt.ParseMAC(a.MAC)
			if err != nil {
				return nil, err
			}
			out = append(out, vswitch.SetEthDst(mac))
		default:
			return nil, fmt.Errorf("unknown action type %q", a.Type)
		}
	}
	return out, nil
}

func parseCIDR(s string) (pkt.Addr, int, error) {
	slash := strings.IndexByte(s, '/')
	if slash < 0 {
		return pkt.Addr{}, 0, fmt.Errorf("bad CIDR %q", s)
	}
	addr, err := pkt.ParseAddr(s[:slash])
	if err != nil {
		return pkt.Addr{}, 0, err
	}
	bits, err := strconv.Atoi(s[slash+1:])
	if err != nil || bits < 0 || bits > 32 {
		return pkt.Addr{}, 0, fmt.Errorf("bad CIDR prefix in %q", s)
	}
	return addr, bits, nil
}
