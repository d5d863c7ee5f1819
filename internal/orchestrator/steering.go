package orchestrator

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/nffg"
	"repro/internal/pkt"
	"repro/internal/telemetry"
	"repro/internal/vswitch"
)

// compileEntries compiles the graph's big-switch flow rules into concrete
// flow entries for the graph's LSI, tagged with the given cookie. Nothing
// is installed: deploy pushes the entries through the OpenFlow channel,
// every later change hands them to the switch's atomic snapshot swap.
func (o *Orchestrator) compileEntries(d *DeployedGraph, cookie uint64) ([]*vswitch.FlowEntry, error) {
	entries := make([]*vswitch.FlowEntry, 0, len(d.Graph.Rules))
	for _, r := range d.Graph.Rules {
		actions, err := o.compileActions(d, r.Actions)
		if err != nil {
			return nil, fmt.Errorf("orchestrator: graph %q rule %q: %w", d.Graph.ID, r.ID, err)
		}
		// A rule whose ingress is an NF expands to one entry per instance
		// that may emit: any member's emission matches the same downstream
		// path, and so does a draining instance's until it is detached.
		ingress := []*nfAttachment{nil}
		if r.Match.PortIn.IsNF() {
			set, ok := d.nfs[r.Match.PortIn.NF]
			if !ok {
				return nil, fmt.Errorf("orchestrator: graph %q rule %q: NF %q not attached", d.Graph.ID, r.ID, r.Match.PortIn.NF)
			}
			ingress = append(set.members[:len(set.members):len(set.members)], set.draining...)
		}
		for _, att := range ingress {
			match, pre, err := o.compileMatch(d, r.Match, att)
			if err != nil {
				return nil, fmt.Errorf("orchestrator: graph %q rule %q: %w", d.Graph.ID, r.ID, err)
			}
			entries = append(entries, &vswitch.FlowEntry{
				Priority: r.Priority,
				Cookie:   cookie,
				Match:    match,
				Actions:  append(pre, actions...),
			})
		}
	}
	return entries, nil
}

// program is the traffic steering manager: it compiles the graph's
// big-switch flow rules into concrete flow entries on the graph's LSI and
// pushes them through the OpenFlow channel.
func (o *Orchestrator) program(d *DeployedGraph) error {
	entries, err := o.compileEntries(d, d.cookie)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if err := d.lsi.ctrl.InstallFlow(0, e.Priority, e.Cookie, e.Match, e.Actions); err != nil {
			return err
		}
	}
	if err := d.lsi.ctrl.Barrier(); err != nil {
		return err
	}
	o.metrics.steeringRules.Add(uint64(len(d.Graph.Rules)))
	o.journal.Recordf(telemetry.EventFlowMod, o.cfg.NodeName, d.Graph.ID,
		fmt.Sprintf("%d rules on %s", len(d.Graph.Rules), o.lsiLabel(d.lsi.sw)))
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

// compileMatch turns a rule selector into a switch match plus any actions
// that must run before the rule's own (tag pop for shared NNF returns). A
// selector whose ingress is an NF is compiled against att, the instance of
// that NF the entry is for.
func (o *Orchestrator) compileMatch(d *DeployedGraph, m nffg.RuleMatch, att *nfAttachment) (vswitch.Match, []vswitch.Action, error) {
	match := vswitch.MatchAll()
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
			return match, nil, err
		}
		match = match.WithIPSrc(addr, bits)
	}
	if m.IPDst != "" {
		addr, bits, err := parseCIDR(m.IPDst)
		if err != nil {
			return match, nil, err
		}
		match = match.WithIPDst(addr, bits)
	}
	if m.L4Src != 0 {
		match = match.WithL4Src(m.L4Src)
	}
	if m.L4Dst != 0 {
		match = match.WithL4Dst(m.L4Dst)
	}

	var pre []vswitch.Action
	switch {
	case m.PortIn.IsEndpoint():
		att, ok := d.eps[m.PortIn.Endpoint]
		if !ok {
			return match, nil, fmt.Errorf("endpoint %q not attached", m.PortIn.Endpoint)
		}
		match = match.WithInPort(att.graphPort)
	case m.PortIn.IsNF():
		idx, err := nfPortIndex(d.Graph, m.PortIn.NF, m.PortIn.Port)
		if err != nil {
			return match, nil, err
		}
		if att.inst.Shared {
			if m.VLANID != 0 {
				return match, nil, fmt.Errorf("vlan match not supported on shared-NNF port %v", m.PortIn)
			}
			// Traffic processed by the shared NNF returns from LSI-0
			// carrying the graph's egress mark; match it and strip it.
			match = match.WithInPort(att.nnfVlink).WithVLAN(att.inst.OutMarks[idx])
			pre = append(pre, vswitch.PopVLAN())
		} else {
			match = match.WithInPort(att.lsiPorts[idx])
		}
	default:
		return match, nil, fmt.Errorf("rule has no port_in")
	}
	return match, pre, nil
}

// compileActions turns rule actions into switch actions.
func (o *Orchestrator) compileActions(d *DeployedGraph, actions []nffg.RuleAction) ([]vswitch.Action, error) {
	out := make([]vswitch.Action, 0, len(actions))
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
					for b, mi := range set.assign {
						ports[b] = set.members[mi].lsiPorts[idx]
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
