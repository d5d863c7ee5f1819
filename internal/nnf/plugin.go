// Package nnf implements Native Network Function support: the paper's core
// contribution.
//
// A NNF is a network function already present in the node's operating
// system (iptables, linuxbridge, the kernel IPsec stack, ...) exposed to
// the NFV orchestrator through a plugin that drives its lifecycle — the
// in-process equivalent of the paper's "collection of bash scripts that
// control the basic lifecycle (create, update, etc.) of the NF".
//
// Two NNF peculiarities from the paper are modeled faithfully:
//
//   - Sharability. Some NNFs cannot be instantiated twice. Such an NNF can
//     still serve multiple service graphs if (i) traffic can be marked per
//     graph and (ii) the NNF supports isolated internal paths selected by
//     the mark. The Manager allocates VLAN marks per graph and programs the
//     plugin's paths.
//   - Single network interface. Many native functions attach to one
//     interface only. The adaptation layer (Adapter) attaches the NNF to a
//     single switch port and demultiplexes the marked per-graph streams.
package nnf

import (
	"fmt"

	"repro/internal/nf"
)

// Traits describe a NNF's deployment characteristics, the knowledge the
// orchestrator uses when "evaluating whether to use NNFs or traditional
// VNFs".
type Traits struct {
	// Sharable reports whether one instance can serve multiple graphs
	// via traffic marking and internal paths.
	Sharable bool
	// MaxInstances bounds concurrent instances; 0 means unlimited, 1
	// models functions backed by global kernel state.
	MaxInstances int
	// SinglePort reports that the native implementation attaches to one
	// network interface only, requiring the adaptation layer.
	SinglePort bool
	// Ports is the number of logical ports of the underlying function.
	Ports int
	// WorkloadRAM is the runtime RSS of the function's process/state.
	WorkloadRAM uint64
}

// Adapted reports whether the NNF serves graphs through the adaptation
// layer, where each graph holds an ingress and an egress mark per port.
func (t Traits) Adapted() bool { return t.Sharable || t.SinglePort }
func graphMarks(t Traits) int  { return 2 * t.Ports }

// PathProgrammer is implemented by processors that support isolated
// mark-selected internal paths (requirement (ii) of sharability).
type PathProgrammer interface {
	SetMarkPath(mark uint16, config map[string]string) error
	RemoveMarkPath(mark uint16) error
}

// firewallPaths adapts *nf.Firewall to PathProgrammer.
type firewallPaths struct{ fw *nf.Firewall }

func (p firewallPaths) SetMarkPath(mark uint16, config map[string]string) error {
	var rules []nf.FWRule
	if spec := config["rules"]; spec != "" {
		for _, rs := range splitRules(spec) {
			r, err := nf.ParseFWRule(rs)
			if err != nil {
				return err
			}
			rules = append(rules, r)
		}
	}
	policy := nf.VerdictAccept
	if config["default"] == "drop" {
		policy = nf.VerdictDrop
	}
	p.fw.SetPath(mark, rules, policy)
	return nil
}

func (p firewallPaths) RemoveMarkPath(mark uint16) error {
	p.fw.RemovePath(mark)
	return nil
}

func splitRules(spec string) []string {
	var out []string
	start := 0
	for i := 0; i <= len(spec); i++ {
		if i == len(spec) || spec[i] == ';' {
			s := spec[start:i]
			// Trim spaces.
			for len(s) > 0 && (s[0] == ' ' || s[0] == '\t') {
				s = s[1:]
			}
			for len(s) > 0 && (s[len(s)-1] == ' ' || s[len(s)-1] == '\t') {
				s = s[:len(s)-1]
			}
			if s != "" {
				out = append(out, s)
			}
			start = i + 1
		}
	}
	return out
}

// Plugin drives the lifecycle of one NNF type. Create and Configure mirror
// the create and update scripts of the original implementation.
type Plugin struct {
	name    string
	traits  Traits
	factory nf.Factory
	// paths returns the PathProgrammer view of a processor, or nil if
	// the NNF does not support internal paths.
	paths func(nf.Processor) PathProgrammer
}

// NewPlugin builds a plugin.
func NewPlugin(name string, traits Traits, factory nf.Factory,
	paths func(nf.Processor) PathProgrammer) (*Plugin, error) {
	if name == "" {
		return nil, fmt.Errorf("nnf: plugin with empty name")
	}
	if traits.Ports < 1 {
		return nil, fmt.Errorf("nnf: plugin %q must declare at least one port", name)
	}
	if traits.Sharable && paths == nil {
		return nil, fmt.Errorf("nnf: sharable plugin %q must support internal paths", name)
	}
	return &Plugin{name: name, traits: traits, factory: factory, paths: paths}, nil
}

// Name returns the NNF type name.
func (p *Plugin) Name() string { return p.name }

// Traits returns the deployment characteristics.
func (p *Plugin) Traits() Traits { return p.traits }

// Create runs the "create" script: it builds the native processor. Generic
// "intent.*" configuration is first translated into the NNF's native
// vocabulary (the paper's future-work dynamic configuration mechanism).
func (p *Plugin) Create(instance string, config map[string]string) (nf.Processor, error) {
	config, err := TranslateConfig(p.name, config)
	if err != nil {
		return nil, err
	}
	return p.factory(config)
}

// Configure runs the "update" script against a running processor, after
// intent translation. Manager.Updater runs it for an instance a graph holds on
// its own; a mark-multiplexed instance is updated per graph through its
// internal paths instead, so one tenant's change never rewrites another's.
func (p *Plugin) Configure(instance string, proc nf.Processor, config map[string]string) error {
	c, ok := proc.(nf.Configurer)
	if !ok {
		return fmt.Errorf("nnf: %s does not support reconfiguration", p.name)
	}
	config, err := TranslateConfig(p.name, config)
	if err != nil {
		return err
	}
	return c.Configure(config)
}

// Paths returns the internal-path programmer for proc, or nil.
func (p *Plugin) Paths(proc nf.Processor) PathProgrammer {
	if p.paths == nil {
		return nil
	}
	return p.paths(proc)
}

// Builtins returns the plugins for the native functions a Linux-based CPE
// ships, with traits reflecting their real constraints:
//
//   - ipsec: kernel XFRM state is host-global, so a single exclusive
//     instance (a second graph must fall back to a VNF).
//   - firewall: iptables is host-global too, but marking (fwmark/VLAN) and
//     per-mark chains make it sharable.
//   - bridge/nat/router/monitor/shaper: multiple instances can coexist.
func Builtins() map[string]*Plugin {
	must := func(p *Plugin, err error) *Plugin {
		if err != nil {
			panic(err)
		}
		return p
	}
	const mb19_4 = 20342374 // 19.4 MB, Table 1's strongSwan footprint
	return map[string]*Plugin{
		"ipsec": must(NewPlugin("ipsec",
			Traits{Sharable: false, MaxInstances: 1, SinglePort: false, Ports: 2, WorkloadRAM: mb19_4},
			nf.NewIPsecFromConfig, nil)),
		"firewall": must(NewPlugin("firewall",
			Traits{Sharable: true, MaxInstances: 1, SinglePort: true, Ports: 2, WorkloadRAM: 3 << 20},
			nf.NewFirewallFromConfig,
			func(proc nf.Processor) PathProgrammer {
				if fw, ok := proc.(*nf.Firewall); ok {
					return firewallPaths{fw: fw}
				}
				return nil
			})),
		"bridge": must(NewPlugin("bridge",
			Traits{Sharable: false, MaxInstances: 0, SinglePort: false, Ports: 2, WorkloadRAM: 1 << 20},
			nf.NewBridgeFromConfig, nil)),
		"nat": must(NewPlugin("nat",
			Traits{Sharable: false, MaxInstances: 0, SinglePort: false, Ports: 2, WorkloadRAM: 2 << 20},
			nf.NewNATFromConfig, nil)),
		"router": must(NewPlugin("router",
			Traits{Sharable: false, MaxInstances: 0, SinglePort: false, Ports: 2, WorkloadRAM: 2 << 20},
			nf.NewRouterFromConfig, nil)),
		"monitor": must(NewPlugin("monitor",
			Traits{Sharable: false, MaxInstances: 0, SinglePort: false, Ports: 2, WorkloadRAM: 1 << 20},
			nf.NewMonitorFromConfig, nil)),
		"shaper": must(NewPlugin("shaper",
			Traits{Sharable: false, MaxInstances: 0, SinglePort: false, Ports: 2, WorkloadRAM: 1 << 20},
			nf.NewShaperFromConfig, nil)),
	}
}
