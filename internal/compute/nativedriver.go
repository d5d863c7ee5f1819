package compute

import (
	"fmt"
	"strings"

	"repro/internal/nffg"
	"repro/internal/nnf"
	"repro/internal/repository"
)

// nativeDriver is the NNF driver introduced by the paper: it implements the
// same abstraction as the other compute drivers but delegates lifecycle to
// the NNF manager — Start, Reconfigurer and Stop run a plugin's create, update
// and stop scripts — which runs native functions in fresh network namespaces,
// shares sharable ones across graphs via traffic marks, and places
// single-interface functions behind the adaptation layer.
type nativeDriver struct {
	deps Deps
	mgr  *nnf.Manager
}

// NewNativeDriver returns the NNF driver backed by the given manager.
func NewNativeDriver(deps Deps, mgr *nnf.Manager) (Driver, error) {
	if err := deps.validate(); err != nil {
		return nil, err
	}
	if mgr == nil {
		return nil, fmt.Errorf("compute: native driver needs a NNF manager")
	}
	return &nativeDriver{deps: deps, mgr: mgr}, nil
}

// Technology implements Driver.
func (d *nativeDriver) Technology() nffg.Technology { return nffg.TechNative }

// Caps implements Driver: native NFs do not drain — a sharable instance is
// mark-multiplexed across graphs, so detach is a release, not a quiesce.
func (d *nativeDriver) Caps() Caps { return Caps{} }

// Reconfigurer implements Driver with the NNF manager's update verb: the
// plugin's update script, or this graph's mark paths of a shared instance.
func (d *nativeDriver) Reconfigurer(inst *Instance) func(map[string]string) error {
	return d.mgr.Updater(inst.GraphID, strings.TrimSuffix(inst.Image, ":native"))
}

// Available implements Driver: the node must advertise the NNF capability
// and the NNF must be acquirable by this graph right now (the paper's
// status check: not "already used in another chain" unless sharable).
func (d *nativeDriver) Available(graphID string, tpl *repository.Template) bool {
	spec, packaged := tpl.Flavors[nffg.TechNative]
	if !packaged {
		return false
	}
	if !d.deps.Resources.Has(spec.Capability) {
		return false
	}
	if _, known := d.mgr.Available(tpl.Name); !known {
		return false
	}
	return d.mgr.CanAcquire(graphID, tpl.Name)
}

// Shares answers, touching nothing, how an instance Start gives a graph
// comes up: shared (one adapted port reached by marks) and, if so, whether
// it joins a running instance, which Start charges nothing.
func (d *nativeDriver) Shares(tpl *repository.Template) (shared, joins bool) {
	t, known := d.mgr.Available(tpl.Name)
	if !known || !t.Adapted() {
		return false, false
	}
	return true, len(d.mgr.Instances(tpl.Name)) > 0
}

// grantOwner is the resource-ledger owner of a (possibly shared) NNF
// instance: the grant belongs to the instance, not to the graphs using it.
func grantOwner(instanceName string) string { return "nnf:" + instanceName }

// Start implements Driver.
func (d *nativeDriver) Start(req StartRequest) (*Instance, error) {
	spec, ok := req.Template.Flavors[nffg.TechNative]
	if !ok {
		return nil, fmt.Errorf("compute: template %q has no native flavor", req.Template.Name)
	}
	if !d.deps.Resources.Has(spec.Capability) {
		return nil, fmt.Errorf("compute: node lacks capability %q", spec.Capability)
	}
	// Native packages are tiny but still accounted (Table 1: 5 MB).
	if _, err := d.deps.Images.Pull(spec.Image); err != nil {
		return nil, fmt.Errorf("compute: pulling %q: %w", spec.Image, err)
	}
	wasRunning := len(d.mgr.Instances(req.Template.Name)) > 0
	att, err := d.mgr.Acquire(req.GraphID, req.Template.Name, req.Config)
	if err != nil {
		_ = d.deps.Images.Remove(spec.Image)
		return nil, err
	}
	// A fresh instance charges the resource ledger once, owned by the
	// instance; graphs that join a shared instance ride on that grant —
	// which is exactly the RAM benefit of sharing.
	joinedExisting := wasRunning && att.Shared
	if !joinedExisting {
		if err := d.deps.Resources.Allocate(grantOwner(att.InstanceName), spec.CPUMillis, att.Runtime.Env().RAM()); err != nil {
			_ = d.mgr.Release(req.GraphID, req.Template.Name)
			_ = d.deps.Images.Remove(spec.Image)
			return nil, err
		}
	}
	return &Instance{
		Name:       req.InstanceName,
		GraphID:    req.GraphID,
		Technology: nffg.TechNative,
		Runtime:    att.Runtime,
		Shared:     att.Shared,
		InMarks:    att.InMarks,
		OutMarks:   att.OutMarks,
		Image:      spec.Image,
	}, nil
}

// Stop implements Driver.
func (d *nativeDriver) Stop(inst *Instance) error {
	// Recover the template name from the image reference
	// ("<name>:native").
	name := strings.TrimSuffix(inst.Image, ":native")
	instanceName := inst.Runtime.Name()
	if err := d.mgr.Release(inst.GraphID, name); err != nil {
		return err
	}
	if !d.instanceAlive(name, instanceName) {
		// We were the last user: the instance died, release its grant.
		_ = d.deps.Resources.Release(grantOwner(instanceName))
	}
	return d.deps.Images.Remove(inst.Image)
}

func (d *nativeDriver) instanceAlive(plugin, instance string) bool {
	for _, inst := range d.mgr.Instances(plugin) {
		if inst.Name == instance {
			return true
		}
	}
	return false
}
