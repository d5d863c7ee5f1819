// Package compute implements the compute manager of the NFV node: a
// registry of technology-specific drivers, each able to start and stop NF
// instances, "all implementing a specific abstraction defined by the local
// orchestrator, which enables multiple drivers to coexist" (paper §2).
//
// Four drivers are provided, mirroring Figure 1's management drivers:
// vmdriver (libvirt/KVM), dockerdriver, dpdkdriver, and the paper's new
// nativedriver (backed by internal/nnf).
package compute

import (
	"fmt"
	"sync"

	"repro/internal/nf"
	"repro/internal/nffg"
	"repro/internal/repository"
)

// StartRequest asks a driver to instantiate one NF.
type StartRequest struct {
	// InstanceName is the node-unique instance identifier
	// ("<graph>.<nf-id>").
	InstanceName string
	// GraphID is the owning service graph.
	GraphID string
	// Template is the resolved repository template.
	Template *repository.Template
	// Config is the NF-specific configuration from the NF-FG.
	Config map[string]string
}

// Instance is a running NF as seen by the orchestrator.
type Instance struct {
	Name       string
	GraphID    string
	Technology nffg.Technology
	// Runtime processes the traffic. For shared native NFs it exposes a
	// single adapted port; otherwise Template.Ports ports.
	Runtime *nf.Runtime
	// Shared reports a mark-multiplexed native NF.
	Shared bool
	// InMarks/OutMarks are the steering marks of shared instances,
	// indexed by logical NF port.
	InMarks  []uint16
	OutMarks []uint16
	// Image is the artifact materialized for this instance.
	Image string
}

// RAM returns the instance's runtime footprint.
func (i *Instance) RAM() uint64 { return i.Runtime.Env().RAM() }

// Caps advertises the optional lifecycle abilities of a driver that hold for
// every instance it runs. Draining decides whether a flavor hot-swap may let
// the outgoing instance finish in-flight packets before stopping it. Whether
// an instance takes new configuration in place depends on the instance, so
// Driver.Reconfigurer answers it per instance.
type Caps struct {
	// SupportsDrain reports that an instance detached from steering keeps
	// processing already-delivered traffic until Stop, so a make-before-
	// break swap can wait for it to quiesce. Shared native NFs do not
	// drain: the instance is mark-multiplexed across graphs and release
	// semantics replace a drain.
	SupportsDrain bool
}

// Driver instantiates NFs of one technology. Implementations must be safe
// for concurrent use.
type Driver interface {
	// Technology identifies the packaging this driver handles.
	Technology() nffg.Technology
	// Caps advertises the driver's lifecycle abilities.
	Caps() Caps
	// Available reports whether the driver can currently deploy the
	// template for the given graph (capability present, NNF not busy).
	Available(graphID string, tpl *repository.Template) bool
	// Start instantiates an NF.
	Start(req StartRequest) (*Instance, error)
	// Stop tears an instance down and releases its resources.
	Stop(inst *Instance) error
	// Reconfigurer answers, touching nothing, how a running instance takes
	// new configuration in place: the returned func applies it. nil means
	// the instance has no update path and must be restarted to change.
	Reconfigurer(inst *Instance) func(config map[string]string) error
}

// Manager is the compute manager: the driver registry.
type Manager struct {
	mu      sync.RWMutex
	drivers map[nffg.Technology]Driver
}

// NewManager returns an empty compute manager.
func NewManager() *Manager {
	return &Manager{drivers: make(map[nffg.Technology]Driver)}
}

// Register adds a driver.
func (m *Manager) Register(d Driver) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	tech := d.Technology()
	if _, dup := m.drivers[tech]; dup || !tech.Valid() || tech == nffg.TechAny {
		return fmt.Errorf("compute: driver for %q: technology unknown or already registered", tech)
	}
	m.drivers[tech] = d
	return nil
}

// Driver returns the driver for a technology.
func (m *Manager) Driver(t nffg.Technology) (Driver, bool) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	d, ok := m.drivers[t]
	return d, ok
}
