// Package resources tracks the compute node's finite resources (CPU, RAM)
// and its capability set. The orchestrator consults it for admission control
// and the VNF-vs-NNF placement decision; drivers charge their footprints
// against it.
package resources

import (
	"fmt"
	"sort"
	"sync"
)

// MB is one mebibyte in bytes.
const MB = 1 << 20

// Capability names a discrete node feature the scheduler can require.
// Examples: "kvm" (hardware virtualization), "docker" (container runtime),
// "dpdk" (userspace datapath), "nnf:ipsec" (a specific native NF plugin).
type Capability string

// Pool is the node resource ledger. All methods are safe for concurrent
// use.
type Pool struct {
	mu           sync.Mutex
	totalCPU     int // millicores
	totalRAM     uint64
	usedCPU      int
	usedRAM      uint64
	capabilities map[Capability]bool
	grants       map[string]Grant // by owner id
}

// Grant records one admitted allocation.
type Grant struct {
	Owner string
	CPU   int // millicores
	RAM   uint64
}

// NewPool creates a ledger with the given capacity (CPU in millicores, RAM
// in bytes).
func NewPool(cpuMillis int, ramBytes uint64) *Pool {
	return &Pool{
		totalCPU:     cpuMillis,
		totalRAM:     ramBytes,
		capabilities: make(map[Capability]bool),
		grants:       make(map[string]Grant),
	}
}

// AddCapability declares a node feature.
func (p *Pool) AddCapability(c Capability) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.capabilities[c] = true
}

// RemoveCapability withdraws a node feature.
func (p *Pool) RemoveCapability(c Capability) {
	p.mu.Lock()
	defer p.mu.Unlock()
	delete(p.capabilities, c)
}

// Has reports whether the node offers a capability.
func (p *Pool) Has(c Capability) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.capabilities[c]
}

// Capabilities returns the sorted capability set.
func (p *Pool) Capabilities() []Capability {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]Capability, 0, len(p.capabilities))
	for c := range p.capabilities {
		out = append(out, c)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Allocate admits an allocation for owner, or fails if capacity or a prior
// grant under the same owner is in the way.
func (p *Pool) Allocate(owner string, cpuMillis int, ramBytes uint64) error {
	if cpuMillis < 0 {
		return fmt.Errorf("resources: negative cpu request")
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if _, dup := p.grants[owner]; dup {
		return fmt.Errorf("resources: owner %q already holds a grant", owner)
	}
	if p.usedCPU+cpuMillis > p.totalCPU {
		return fmt.Errorf("resources: cpu exhausted: want %dm, free %dm",
			cpuMillis, p.totalCPU-p.usedCPU)
	}
	if p.usedRAM+ramBytes > p.totalRAM {
		return fmt.Errorf("resources: ram exhausted: want %d MB, free %d MB",
			ramBytes/MB, (p.totalRAM-p.usedRAM)/MB)
	}
	p.usedCPU += cpuMillis
	p.usedRAM += ramBytes
	p.grants[owner] = Grant{Owner: owner, CPU: cpuMillis, RAM: ramBytes}
	return nil
}

// Release returns owner's grant to the pool. Releasing an unknown owner is
// an error so leaks surface in tests.
func (p *Pool) Release(owner string) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	g, ok := p.grants[owner]
	if !ok {
		return fmt.Errorf("resources: owner %q holds no grant", owner)
	}
	p.usedCPU -= g.CPU
	p.usedRAM -= g.RAM
	delete(p.grants, owner)
	return nil
}

// Usage returns the currently used and total resources.
func (p *Pool) Usage() (usedCPU, totalCPU int, usedRAM, totalRAM uint64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.usedCPU, p.totalCPU, p.usedRAM, p.totalRAM
}

// sortedGrants returns all active grants sorted by owner.
func (p *Pool) sortedGrants() []Grant {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]Grant, 0, len(p.grants))
	for _, g := range p.grants {
		out = append(out, g)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Owner < out[j].Owner })
	return out
}
