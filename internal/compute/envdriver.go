package compute

import (
	"fmt"

	"repro/internal/execenv"
	"repro/internal/imagestore"
	"repro/internal/nf"
	"repro/internal/nffg"
	"repro/internal/repository"
	"repro/internal/resources"
)

// Deps bundles the node services every driver needs.
type Deps struct {
	// NFs builds packet processors by template name.
	NFs *nf.Registry
	// Images is the node's image store.
	Images *imagestore.Store
	// Resources is the node's CPU/RAM ledger.
	Resources *resources.Pool
	// Model is the execution-environment cost model.
	Model execenv.CostModel
	// Clock accumulates simulated time across all instances; nil gives
	// each instance a private one.
	Clock *execenv.VirtualClock
}

func (d Deps) validate() error {
	if d.NFs == nil || d.Images == nil || d.Resources == nil {
		return fmt.Errorf("compute: incomplete driver dependencies")
	}
	return nil
}

// envDriver is the common implementation of the hypervisor-style drivers:
// VM (libvirt/KVM), Docker and DPDK. Each materializes the flavor's image,
// reserves resources, and runs the NF's processor inside an execution
// environment of the matching flavor.
type envDriver struct {
	tech       nffg.Technology
	flavor     execenv.Flavor
	capability resources.Capability
	deps       Deps
}

// NewVMDriver returns the libvirt/KVM-style driver.
func NewVMDriver(deps Deps) (Driver, error) {
	return newEnvDriver(nffg.TechVM, execenv.FlavorVM, "kvm", deps)
}

// NewDockerDriver returns the Docker driver.
func NewDockerDriver(deps Deps) (Driver, error) {
	return newEnvDriver(nffg.TechDocker, execenv.FlavorDocker, "docker", deps)
}

// NewDPDKDriver returns the DPDK-process driver.
func NewDPDKDriver(deps Deps) (Driver, error) {
	return newEnvDriver(nffg.TechDPDK, execenv.FlavorDPDK, "dpdk", deps)
}

func newEnvDriver(tech nffg.Technology, flavor execenv.Flavor, cap resources.Capability, deps Deps) (Driver, error) {
	if err := deps.validate(); err != nil {
		return nil, err
	}
	return &envDriver{tech: tech, flavor: flavor, capability: cap, deps: deps}, nil
}

// Technology implements Driver.
func (d *envDriver) Technology() nffg.Technology { return d.tech }

// Caps implements Driver: hypervisor-style environments are private to one
// graph, so they drain cleanly on hot-swap.
func (d *envDriver) Caps() Caps {
	return Caps{SupportsDrain: true}
}

// Reconfigurer implements Driver: a private processor that accepts
// configuration updates takes them in place.
func (d *envDriver) Reconfigurer(inst *Instance) func(map[string]string) error {
	if c, ok := inst.Runtime.Processor().(nf.Configurer); ok {
		return c.Configure
	}
	return nil
}

// Available implements Driver.
func (d *envDriver) Available(_ string, tpl *repository.Template) bool {
	spec, packaged := tpl.Flavors[d.tech]
	if !packaged {
		return false
	}
	if !d.deps.Resources.Has(spec.Capability) {
		return false
	}
	_, inCatalog := d.deps.Images.Lookup(spec.Image)
	return inCatalog
}

// Start implements Driver.
func (d *envDriver) Start(req StartRequest) (*Instance, error) {
	spec, ok := req.Template.Flavors[d.tech]
	if !ok {
		return nil, fmt.Errorf("compute: template %q has no %q flavor", req.Template.Name, d.tech)
	}
	if !d.deps.Resources.Has(spec.Capability) {
		return nil, fmt.Errorf("compute: node lacks capability %q", spec.Capability)
	}

	// 1. Materialize the image (cached layers are free).
	if _, err := d.deps.Images.Pull(spec.Image); err != nil {
		return nil, fmt.Errorf("compute: pulling %q: %w", spec.Image, err)
	}

	// 2. Build the execution environment and charge its footprint.
	env, err := execenv.New(req.InstanceName, d.flavor, d.deps.Model, d.deps.Clock)
	if err != nil {
		d.rollbackImage(spec.Image)
		return nil, err
	}
	env.SetWorkloadRAM(req.Template.WorkloadRAM)
	if err := d.deps.Resources.Allocate(req.InstanceName, spec.CPUMillis, env.RAM()); err != nil {
		d.rollbackImage(spec.Image)
		return nil, err
	}

	// 3. Build the packet processor and boot.
	proc, err := d.deps.NFs.Build(req.Template.Name, req.Config)
	if err != nil {
		_ = d.deps.Resources.Release(req.InstanceName)
		d.rollbackImage(spec.Image)
		return nil, err
	}
	rt := nf.NewRuntime(req.InstanceName, proc, env, req.Template.Ports)
	rt.Start()

	return &Instance{
		Name:       req.InstanceName,
		GraphID:    req.GraphID,
		Technology: d.tech,
		Runtime:    rt,
		Image:      spec.Image,
	}, nil
}

// Stop implements Driver.
func (d *envDriver) Stop(inst *Instance) error {
	inst.Runtime.Stop()
	if err := d.deps.Resources.Release(inst.Name); err != nil {
		return err
	}
	return d.deps.Images.Remove(inst.Image)
}

func (d *envDriver) rollbackImage(image string) {
	_ = d.deps.Images.Remove(image)
}
