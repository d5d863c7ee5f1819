package nf

import (
	"fmt"
	"strconv"
	"strings"
	"sync"

	"repro/internal/pkt"
)

// Verdict is a firewall rule decision.
type Verdict int

// Verdicts.
const (
	VerdictAccept Verdict = iota
	VerdictDrop
)

func (v Verdict) String() string {
	if v == VerdictDrop {
		return "drop"
	}
	return "accept"
}

// FWRule is one stateless filter rule, in the spirit of an iptables rule.
// Zero fields are wildcards.
type FWRule struct {
	Proto   pkt.IPProtocol
	SrcCIDR string
	DstCIDR string
	SrcPort uint16
	DstPort uint16
	Verdict Verdict

	// src and dst are SrcCIDR and DstCIDR parsed when the rule is
	// installed (compileRules), so matching a packet parses no text.
	src, dst prefix
}

// matches evaluates the rule against a parsed frame.
func (r *FWRule) matches(ip *pkt.IPv4, l4src, l4dst uint16) bool {
	if r.Proto != 0 && ip.Protocol != r.Proto {
		return false
	}
	if r.SrcCIDR != "" && !r.src.contains(ip.SrcIP) {
		return false
	}
	if r.DstCIDR != "" && !r.dst.contains(ip.DstIP) {
		return false
	}
	if r.SrcPort != 0 && l4src != r.SrcPort {
		return false
	}
	if r.DstPort != 0 && l4dst != r.DstPort {
		return false
	}
	return true
}

// compileRules returns a copy of rules with their CIDRs parsed. A CIDR that
// does not parse matches no address.
func compileRules(rules []FWRule) []FWRule {
	out := make([]FWRule, len(rules))
	for i, r := range rules {
		if r.SrcCIDR != "" {
			r.src, _ = parsePrefix(r.SrcCIDR)
		}
		if r.DstCIDR != "" {
			r.dst, _ = parsePrefix(r.DstCIDR)
		}
		out[i] = r
	}
	return out
}

// prefix is an IPv4 CIDR block; the zero value contains no address.
type prefix struct {
	base, mask uint32
	bits       int
	valid      bool
}

// parsePrefix parses "a.b.c.d/n".
func parsePrefix(cidr string) (prefix, error) {
	slash := strings.IndexByte(cidr, '/')
	if slash < 0 {
		return prefix{}, fmt.Errorf("nf: prefix %q not CIDR", cidr)
	}
	base, err := pkt.ParseAddr(cidr[:slash])
	if err != nil {
		return prefix{}, err
	}
	bits, err := strconv.Atoi(cidr[slash+1:])
	if err != nil || bits < 0 || bits > 32 {
		return prefix{}, fmt.Errorf("nf: prefix %q has bad length", cidr)
	}
	var mask uint32
	if bits > 0 {
		mask = ^uint32(0) << (32 - bits)
	}
	return prefix{base: base.Uint32() & mask, mask: mask, bits: bits, valid: true}, nil
}

func (p prefix) contains(a pkt.Addr) bool {
	return p.valid && a.Uint32()&p.mask == p.base
}

// pathTable is one isolated rule set inside a shared firewall; the paper's
// "multiple internal paths that are needed to process the above multiple
// traffic streams in isolation".
type pathTable struct {
	rules         []FWRule
	defaultPolicy Verdict
	hits, drops   uint64
}

// Firewall is a stateless bump-in-the-wire filter with mark-based internal
// paths. It is the model of a *sharable* NNF: traffic of different service
// graphs reaches the single shared instance tagged with a distinguishing
// VLAN mark (applied by the adaptation layer), and each mark selects an
// isolated rule table. Untagged traffic uses the default path, so the same
// processor also serves as an ordinary per-graph firewall.
//
// Port convention: frames received on port 0 exit port 1 and vice versa.
//
// With `conntrack: "true"` in the configuration the firewall is stateful:
// connections accepted from the inside (port 0) are recorded, and return
// traffic on port 1 matching an established connection is accepted before
// the rule tables are consulted — the iptables ESTABLISHED idiom. The
// conntrack table is exportable per flow (StatefulNF), and because
// FlowBucket is symmetric both directions of a tracked connection live in
// the same steering bucket, so the table shards cleanly across replicas.
type Firewall struct {
	mu    sync.RWMutex
	def   pathTable
	paths map[uint16]*pathTable

	conntrack bool
	conns     map[FlowTuple]struct{} // established, keyed by the inside-originated direction
}

// NewFirewall returns a firewall whose default path accepts everything.
func NewFirewall() *Firewall {
	return &Firewall{paths: make(map[uint16]*pathTable), conns: make(map[FlowTuple]struct{})}
}

// NewFirewallFromConfig builds a firewall from an NF-FG configuration map:
//
//	default: "accept" (default) or "drop"
//	rules:   semicolon-separated rules, each
//	         "<accept|drop> [proto=udp|tcp|icmp|esp] [src=CIDR] [dst=CIDR]
//	          [sport=N] [dport=N]"
func NewFirewallFromConfig(config map[string]string) (Processor, error) {
	fw := NewFirewall()
	if err := fw.Configure(config); err != nil {
		return nil, err
	}
	return fw, nil
}

// Configure implements Configurer: it replaces the default path's policy
// and rules.
func (f *Firewall) Configure(config map[string]string) error {
	var rules []FWRule
	if spec, ok := config["rules"]; ok && strings.TrimSpace(spec) != "" {
		for _, rs := range strings.Split(spec, ";") {
			rs = strings.TrimSpace(rs)
			if rs == "" {
				continue
			}
			r, err := ParseFWRule(rs)
			if err != nil {
				return err
			}
			rules = append(rules, r)
		}
	}
	policy := VerdictAccept
	switch strings.TrimSpace(config["default"]) {
	case "", "accept":
	case "drop":
		policy = VerdictDrop
	default:
		return fmt.Errorf("nf: firewall default policy %q unknown", config["default"])
	}
	ct := false
	switch strings.TrimSpace(config["conntrack"]) {
	case "", "false":
	case "true":
		ct = true
	default:
		return fmt.Errorf("nf: firewall conntrack %q must be true or false", config["conntrack"])
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	f.def.rules = compileRules(rules)
	f.def.defaultPolicy = policy
	f.conntrack = ct
	return nil
}

// ParseFWRule parses the textual rule form used in configurations.
func ParseFWRule(s string) (FWRule, error) {
	fields := strings.Fields(s)
	if len(fields) == 0 {
		return FWRule{}, fmt.Errorf("nf: empty firewall rule")
	}
	var r FWRule
	switch fields[0] {
	case "accept":
		r.Verdict = VerdictAccept
	case "drop":
		r.Verdict = VerdictDrop
	default:
		return FWRule{}, fmt.Errorf("nf: firewall rule must start with accept/drop: %q", s)
	}
	for _, f := range fields[1:] {
		k, v, ok := strings.Cut(f, "=")
		if !ok {
			return FWRule{}, fmt.Errorf("nf: bad firewall rule token %q", f)
		}
		switch k {
		case "proto":
			switch v {
			case "udp":
				r.Proto = pkt.IPProtocolUDP
			case "tcp":
				r.Proto = pkt.IPProtocolTCP
			case "icmp":
				r.Proto = pkt.IPProtocolICMP
			case "esp":
				r.Proto = pkt.IPProtocolESP
			default:
				return FWRule{}, fmt.Errorf("nf: unknown proto %q", v)
			}
		case "src":
			r.SrcCIDR = v
		case "dst":
			r.DstCIDR = v
		case "sport", "dport":
			n, err := strconv.ParseUint(v, 10, 16)
			if err != nil {
				return FWRule{}, fmt.Errorf("nf: bad port %q", v)
			}
			if k == "sport" {
				r.SrcPort = uint16(n)
			} else {
				r.DstPort = uint16(n)
			}
		default:
			return FWRule{}, fmt.Errorf("nf: unknown firewall rule key %q", k)
		}
	}
	return r, nil
}

// SetPath installs an isolated rule table for a mark. It is called by the
// NNF adaptation layer when a new service graph starts sharing the
// instance.
func (f *Firewall) SetPath(mark uint16, rules []FWRule, defaultPolicy Verdict) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.paths[mark] = &pathTable{rules: compileRules(rules), defaultPolicy: defaultPolicy}
}

// RemovePath drops a mark's rule table.
func (f *Firewall) RemovePath(mark uint16) {
	f.mu.Lock()
	defer f.mu.Unlock()
	delete(f.paths, mark)
}

// numPaths returns the number of installed mark paths.
func (f *Firewall) numPaths() int {
	f.mu.RLock()
	defer f.mu.RUnlock()
	return len(f.paths)
}

// Process implements Processor.
func (f *Firewall) Process(inPort int, frame []byte) (Result, error) {
	return f.ProcessInto(inPort, frame, nil)
}

// ProcessInto implements IntoProcessor.
func (f *Firewall) ProcessInto(inPort int, frame []byte, out []Emission) (Result, error) {
	if inPort != 0 && inPort != 1 {
		return Result{}, fmt.Errorf("nf: firewall has no port %d", inPort)
	}
	outPort := 1 - inPort

	var h headers
	h.decode(frame)
	if !h.hasIP {
		// Non-IP (ARP etc.) passes: iptables only sees IP.
		return Result{Emissions: append(out, Emission{Port: outPort, Frame: frame})}, nil
	}
	tuple := FlowTuple{Proto: h.ip.Protocol, Src: h.ip.SrcIP, Dst: h.ip.DstIP, SrcPort: h.srcPort, DstPort: h.dstPort}

	f.mu.Lock()
	table := &f.def
	// Mark = VLAN tag, the sharable-NNF path selector.
	if h.mark != 0 {
		if t, ok := f.paths[h.mark]; ok {
			table = t
		}
	}
	verdict := table.defaultPolicy
	established := false
	if f.conntrack && inPort == 1 {
		// Return direction: an established inside-originated connection is
		// accepted before the rule tables run (iptables ESTABLISHED).
		rev := FlowTuple{Proto: tuple.Proto, Src: tuple.Dst, Dst: tuple.Src, SrcPort: tuple.DstPort, DstPort: tuple.SrcPort}
		_, established = f.conns[rev]
	}
	if established {
		verdict = VerdictAccept
	} else {
		for i := range table.rules {
			if r := &table.rules[i]; r.matches(&h.ip, h.srcPort, h.dstPort) {
				verdict = r.Verdict
				break
			}
		}
	}
	if f.conntrack && inPort == 0 && verdict == VerdictAccept {
		f.conns[tuple] = struct{}{}
	}
	table.hits++
	if verdict == VerdictDrop {
		table.drops++
	}
	f.mu.Unlock()

	if verdict == VerdictDrop {
		return Result{}, nil
	}
	return Result{Emissions: append(out, Emission{Port: outPort, Frame: frame})}, nil
}

// ExportFlowState implements StatefulNF: one entry per tracked connection,
// keyed by the inside-originated direction.
func (f *Firewall) ExportFlowState(filter func(FlowTuple) bool) []FlowState {
	f.mu.RLock()
	defer f.mu.RUnlock()
	var out []FlowState
	for t := range f.conns {
		if filter != nil && !filter(t) {
			continue
		}
		out = append(out, FlowState{Tuple: t, Kind: "conntrack"})
	}
	return out
}

// ImportFlowState implements StatefulNF. Importing is idempotent.
func (f *Firewall) ImportFlowState(states []FlowState) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, st := range states {
		if st.Kind != "conntrack" {
			continue
		}
		f.conns[st.Tuple] = struct{}{}
	}
	return nil
}

// DropFlowState removes tracked connections the filter accepts (nil drops
// all) — the source-side cleanup after a bucket migrates away.
func (f *Firewall) DropFlowState(filter func(FlowTuple) bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	for t := range f.conns {
		if filter == nil || filter(t) {
			delete(f.conns, t)
		}
	}
}

// pathStats returns hit/drop counters for a mark path (mark 0 = default).
func (f *Firewall) pathStats(mark uint16) (hits, drops uint64) {
	f.mu.RLock()
	defer f.mu.RUnlock()
	if mark == 0 {
		return f.def.hits, f.def.drops
	}
	if t, ok := f.paths[mark]; ok {
		return t.hits, t.drops
	}
	return 0, 0
}
