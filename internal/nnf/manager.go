package nnf

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"strconv"
	"sync"

	"repro/internal/execenv"
	"repro/internal/netns"
	"repro/internal/nf"
)

// ErrBusy reports that an exclusive NNF is already used by another service
// graph; the orchestrator reacts by falling back to a VNF flavor.
var ErrBusy = errors.New("nnf: exclusive NNF already in use by another graph")

// ErrUnknown reports that no plugin provides the requested NNF.
var ErrUnknown = errors.New("nnf: no such native network function")

// Attachment is what a service graph holds after acquiring a NNF.
type Attachment struct {
	// InstanceName identifies the running NNF instance.
	InstanceName string
	// Runtime is the running function. For shared/single-port NNFs it
	// exposes exactly one port (the adaptation layer); otherwise one
	// port per logical NF port.
	Runtime *nf.Runtime
	// Shared reports adapter mode: traffic must carry marks.
	Shared bool
	// InMarks, indexed by logical NF port, are the tags the switch must
	// push on traffic destined to that port.
	InMarks []uint16
	// OutMarks, indexed by logical NF port, are the tags carried by
	// traffic the NNF emits from that port; the switch matches on them
	// and pops the tag.
	OutMarks []uint16
}

// Instance is one running NNF.
type Instance struct {
	Name       string
	PluginName string
	Runtime    *nf.Runtime
	Namespace  string

	adapter *Adapter
	proc    nf.Processor
	users   map[string]*attachState // by graph id
}

type attachState struct {
	inMarks  []uint16
	outMarks []uint16
}

// Users returns the ids of the graphs currently using the instance.
func (i *Instance) Users() []string {
	out := make([]string, 0, len(i.users))
	for g := range i.users {
		out = append(out, g)
	}
	sort.Strings(out)
	return out
}

// Manager owns the node's NNF plugins and running instances. It is the
// backend of the native compute driver and the information source for the
// orchestrator's placement decision.
type Manager struct {
	plugins map[string]*Plugin
	ns      *netns.Registry
	model   execenv.CostModel
	clock   *execenv.VirtualClock
	marks   *MarkAllocator

	mu        sync.Mutex
	instances map[string][]*Instance // by plugin name
	seq       int
}

// NewManager builds a manager over the given plugins. The clock may be nil
// for a private clock per manager.
func NewManager(plugins map[string]*Plugin, ns *netns.Registry,
	model execenv.CostModel, clock *execenv.VirtualClock) *Manager {
	if clock == nil {
		clock = &execenv.VirtualClock{}
	}
	return &Manager{
		plugins:   plugins,
		ns:        ns,
		model:     model,
		clock:     clock,
		marks:     NewMarkAllocator(),
		instances: make(map[string][]*Instance),
	}
}

// Available reports whether a NNF plugin exists and returns its traits.
func (m *Manager) Available(name string) (Traits, bool) {
	p, ok := m.plugins[name]
	if !ok {
		return Traits{}, false
	}
	return p.Traits(), true
}

// names returns the plugin names, sorted.
func (m *Manager) names() []string {
	out := make([]string, 0, len(m.plugins))
	for n := range m.plugins {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// CanAcquire reports whether graphID could acquire the named NNF right now.
// This is the "status (e.g., already used in another chain)" input of the
// orchestrator's placement decision.
func (m *Manager) CanAcquire(graphID, name string) bool {
	p, ok := m.plugins[name]
	if !ok {
		return false
	}
	t := p.Traits()
	if t.Adapted() && m.marks.Available() < graphMarks(t) {
		return false
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	insts := m.instances[name]
	if t.MaxInstances == 0 || len(insts) < t.MaxInstances {
		return true
	}
	if !t.Sharable {
		return false
	}
	// Sharable singleton: a graph not yet attached can join.
	inst, _ := m.attachedLocked(graphID, name)
	return inst == nil
}

// Acquire gives graphID a running instance of the named NNF. For exclusive
// singletons held by another graph it returns ErrBusy.
func (m *Manager) Acquire(graphID, name string, config map[string]string) (*Attachment, error) {
	p, ok := m.plugins[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknown, name)
	}
	t := p.Traits()

	m.mu.Lock()
	defer m.mu.Unlock()

	insts := m.instances[name]
	if inst, _ := m.attachedLocked(graphID, name); inst != nil {
		return nil, fmt.Errorf("nnf: graph %q already holds %q", graphID, name)
	}

	// Join an existing sharable instance when the instance cap is hit.
	if t.MaxInstances != 0 && len(insts) >= t.MaxInstances {
		if !t.Sharable {
			return nil, fmt.Errorf("%w: %q held by %v", ErrBusy, name, insts[0].Users())
		}
		return m.joinLocked(p, insts[0], graphID, config)
	}

	// Create a fresh instance.
	m.seq++
	instName := name + "-" + strconv.Itoa(m.seq)
	proc, err := p.Create(instName, config)
	if err != nil {
		return nil, err
	}
	into, ok := proc.(nf.IntoProcessor)
	if t.Adapted() && !ok {
		return nil, fmt.Errorf("nnf: %q has no nf.IntoProcessor for the adaptation layer", name)
	}

	nsName := "nnf-" + instName
	if _, err := m.ns.Create(nsName); err != nil {
		return nil, err
	}
	env, err := execenv.New(instName, execenv.FlavorNative, m.model, m.clock)
	if err != nil {
		_ = m.ns.Delete(nsName)
		return nil, err
	}
	env.SetWorkloadRAM(t.WorkloadRAM)

	inst := &Instance{
		Name:       instName,
		PluginName: name,
		Namespace:  nsName,
		proc:       proc,
		users:      make(map[string]*attachState),
	}
	if t.Adapted() {
		inst.adapter = NewAdapter(into)
		inst.Runtime = nf.NewRuntime(instName, inst.adapter, env, 1)
	} else {
		inst.Runtime = nf.NewRuntime(instName, proc, env, t.Ports)
	}
	// The NNF's interfaces live inside its namespace (basic isolation).
	for i := 0; i < inst.Runtime.NumPorts(); i++ {
		if err := m.ns.AddDevice(nsName, inst.Runtime.Port(i)); err != nil {
			_ = m.ns.Delete(nsName)
			return nil, err
		}
	}
	inst.Runtime.Start()
	m.instances[name] = append(m.instances[name], inst)

	if t.Adapted() {
		att, err := m.attachMarksLocked(p, inst, graphID, config)
		if err != nil {
			m.destroyLocked(inst)
			return nil, err
		}
		return att, nil
	}
	inst.users[graphID] = &attachState{}
	return &Attachment{InstanceName: instName, Runtime: inst.Runtime}, nil
}

// joinLocked attaches another graph to a running sharable instance.
func (m *Manager) joinLocked(p *Plugin, inst *Instance, graphID string, config map[string]string) (*Attachment, error) {
	return m.attachMarksLocked(p, inst, graphID, config)
}

// attachMarksLocked allocates per-graph marks and programs the adapter and
// the NNF's internal paths.
func (m *Manager) attachMarksLocked(p *Plugin, inst *Instance, graphID string, config map[string]string) (*Attachment, error) {
	t := p.Traits()
	marks, err := m.marks.AllocN(graphMarks(t))
	if err != nil {
		return nil, err
	}
	in, out := marks[:t.Ports], marks[t.Ports:]

	for port := 0; port < t.Ports; port++ {
		if err := inst.adapter.AddPath(in[port], AdapterPath{InnerPort: port, EgressMarks: out}); err != nil {
			for _, mk := range marks {
				m.marks.Free(mk)
			}
			return nil, err
		}
	}
	if prog := p.Paths(inst.proc); prog != nil {
		pathConfig, err := TranslateConfig(p.name, config)
		if err != nil {
			for _, mk := range marks {
				m.marks.Free(mk)
			}
			for port := 0; port < t.Ports; port++ {
				inst.adapter.RemovePath(in[port])
			}
			return nil, err
		}
		for _, mk := range in {
			if err := prog.SetMarkPath(mk, pathConfig); err != nil {
				for port := 0; port < t.Ports; port++ {
					inst.adapter.RemovePath(in[port])
				}
				for _, mk := range marks {
					m.marks.Free(mk)
				}
				return nil, err
			}
		}
	}
	inst.users[graphID] = &attachState{inMarks: in, outMarks: out}
	return &Attachment{
		InstanceName: inst.Name,
		Runtime:      inst.Runtime,
		Shared:       true,
		InMarks:      in,
		OutMarks:     out,
	}, nil
}

// attachedLocked finds graphID's attachment to the named NNF; nil when the
// graph holds none.
func (m *Manager) attachedLocked(graphID, name string) (*Instance, *attachState) {
	for _, inst := range m.instances[name] {
		if st, attached := inst.users[graphID]; attached {
			return inst, st
		}
	}
	return nil, nil
}

// Updater is the update verb: it answers, touching nothing, how graphID's
// attachment to the named NNF takes new configuration in place (nil: it has no
// update path). A shared instance re-programs that graph's mark paths only, as
// Acquire does; an instance of its own runs the plugin's update script.
func (m *Manager) Updater(graphID, name string) func(config map[string]string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	inst, st := m.attachedLocked(graphID, name)
	if inst == nil {
		return nil
	}
	p := m.plugins[name]
	if prog := p.Paths(inst.proc); inst.adapter != nil && prog != nil {
		return func(config map[string]string) error {
			pathConfig, err := TranslateConfig(p.name, config)
			for _, mk := range st.inMarks {
				if err == nil {
					err = prog.SetMarkPath(mk, pathConfig)
				}
			}
			return err
		}
	}
	if _, ok := inst.proc.(nf.Configurer); !ok {
		return nil
	}
	return func(config map[string]string) error { return p.Configure(inst.Name, inst.proc, config) }
}

// Release detaches graphID from the named NNF, destroying the instance when
// the last user leaves.
func (m *Manager) Release(graphID, name string) error {
	p, ok := m.plugins[name]
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknown, name)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	inst, st := m.attachedLocked(graphID, name)
	if inst == nil {
		return fmt.Errorf("nnf: graph %q holds no %q", graphID, name)
	}
	if inst.adapter != nil {
		prog := p.Paths(inst.proc)
		for _, mk := range st.inMarks {
			inst.adapter.RemovePath(mk)
			if prog != nil {
				_ = prog.RemoveMarkPath(mk)
			}
		}
		for _, mk := range append(append([]uint16(nil), st.inMarks...), st.outMarks...) {
			m.marks.Free(mk)
		}
	}
	delete(inst.users, graphID)
	if len(inst.users) == 0 {
		m.destroyLocked(inst)
		m.instances[name] = slices.DeleteFunc(m.instances[name], func(i *Instance) bool { return i == inst })
		if len(m.instances[name]) == 0 {
			delete(m.instances, name)
		}
	}
	return nil
}

func (m *Manager) destroyLocked(inst *Instance) {
	inst.Runtime.Stop()
	_ = m.ns.Delete(inst.Namespace)
}

// Instances returns the running instances of one plugin.
func (m *Manager) Instances(name string) []*Instance {
	m.mu.Lock()
	defer m.mu.Unlock()
	return append([]*Instance(nil), m.instances[name]...)
}

// totalRAM returns the combined runtime footprint of all NNF instances.
func (m *Manager) totalRAM() uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	var total uint64
	for _, insts := range m.instances {
		for _, inst := range insts {
			total += inst.Runtime.Env().RAM()
		}
	}
	return total
}

// marksInUse reports the number of allocated traffic marks.
func (m *Manager) marksInUse() int { return m.marks.InUse() }
