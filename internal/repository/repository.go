// Package repository implements the VNF repository of the compute node: the
// catalog of deployable NF templates, each listing the execution
// technologies it is packaged for, the image artifact per technology, and
// the resources it needs. The orchestrator's VNF resolver queries it to
// turn an abstract NF name from a NF-FG into a concrete deployable flavor.
package repository

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/imagestore"
	"repro/internal/nffg"
	"repro/internal/resources"
)

// MB is one mebibyte in bytes.
const MB = 1 << 20

// FlavorSpec describes one packaging of a template.
type FlavorSpec struct {
	// Image names the artifact in the image store ("" for native NFs
	// whose binary ships with the OS... which still have a tiny package
	// recorded for Table 1 accounting).
	Image string
	// CPUMillis is the steady-state CPU reservation.
	CPUMillis int
	// Capability is the node feature this flavor needs ("kvm", "docker",
	// "dpdk", "nnf:<name>").
	Capability resources.Capability
}

// Template is one deployable NF type.
type Template struct {
	// Name is the template identifier referenced by NF-FGs.
	Name string
	// Ports is the number of traffic ports of the NF.
	Ports int
	// WorkloadRAM is the RAM the NF logic itself uses, independent of
	// packaging.
	WorkloadRAM uint64
	// Flavors lists the available packagings.
	Flavors map[nffg.Technology]FlavorSpec
}

// SupportedTechnologies returns the template's packagings, sorted.
func (t *Template) SupportedTechnologies() []nffg.Technology {
	out := make([]nffg.Technology, 0, len(t.Flavors))
	for tech := range t.Flavors {
		out = append(out, tech)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Repository is the template catalog.
type Repository struct {
	mu        sync.RWMutex
	templates map[string]*Template
}

// New returns an empty repository.
func New() *Repository {
	return &Repository{templates: make(map[string]*Template)}
}

// Add registers a template.
func (r *Repository) Add(t *Template) error {
	if t.Name == "" {
		return fmt.Errorf("repository: template with empty name")
	}
	if t.Ports < 1 {
		return fmt.Errorf("repository: template %q has no ports", t.Name)
	}
	if len(t.Flavors) == 0 {
		return fmt.Errorf("repository: template %q has no flavors", t.Name)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.templates[t.Name]; dup {
		return fmt.Errorf("repository: template %q already present", t.Name)
	}
	r.templates[t.Name] = t
	return nil
}

// Lookup finds a template by name.
func (r *Repository) Lookup(name string) (*Template, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	t, ok := r.templates[name]
	return t, ok
}

// names returns the catalog's template names, sorted.
func (r *Repository) names() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]string, 0, len(r.templates))
	for n := range r.templates {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// ipsecWorkloadRAM is Table 1's strongSwan runtime footprint (19.4 MB).
const ipsecWorkloadRAM = 20342374

// Default returns the repository used throughout the reproduction, with the
// IPsec template's three packagings sized exactly as Table 1 reports
// (522 MB VM image, 240 MB Docker image, 5 MB native package) plus the other
// native functions the paper cites.
func Default() *Repository {
	r := New()
	must := func(err error) {
		if err != nil {
			panic(err)
		}
	}
	must(r.Add(&Template{
		Name:        "ipsec",
		Ports:       2,
		WorkloadRAM: ipsecWorkloadRAM,
		Flavors: map[nffg.Technology]FlavorSpec{
			nffg.TechVM:     {Image: "ipsec:vm", CPUMillis: 1000, Capability: "kvm"},
			nffg.TechDocker: {Image: "ipsec:docker", CPUMillis: 500, Capability: "docker"},
			nffg.TechNative: {Image: "ipsec:native", CPUMillis: 250, Capability: "nnf:ipsec"},
		},
	}))
	must(r.Add(&Template{
		Name:        "firewall",
		Ports:       2,
		WorkloadRAM: 3 * MB,
		Flavors: map[nffg.Technology]FlavorSpec{
			nffg.TechVM:     {Image: "firewall:vm", CPUMillis: 500, Capability: "kvm"},
			nffg.TechDocker: {Image: "firewall:docker", CPUMillis: 250, Capability: "docker"},
			nffg.TechNative: {Image: "firewall:native", CPUMillis: 100, Capability: "nnf:firewall"},
		},
	}))
	must(r.Add(&Template{
		Name:        "nat",
		Ports:       2,
		WorkloadRAM: 2 * MB,
		Flavors: map[nffg.Technology]FlavorSpec{
			nffg.TechDocker: {Image: "nat:docker", CPUMillis: 250, Capability: "docker"},
			nffg.TechNative: {Image: "nat:native", CPUMillis: 100, Capability: "nnf:nat"},
		},
	}))
	must(r.Add(&Template{
		Name:        "bridge",
		Ports:       2,
		WorkloadRAM: 1 * MB,
		Flavors: map[nffg.Technology]FlavorSpec{
			nffg.TechDocker: {Image: "bridge:docker", CPUMillis: 100, Capability: "docker"},
			nffg.TechNative: {Image: "bridge:native", CPUMillis: 50, Capability: "nnf:bridge"},
		},
	}))
	must(r.Add(&Template{
		Name:        "router",
		Ports:       2,
		WorkloadRAM: 2 * MB,
		Flavors: map[nffg.Technology]FlavorSpec{
			nffg.TechDocker: {Image: "router:docker", CPUMillis: 250, Capability: "docker"},
			nffg.TechNative: {Image: "router:native", CPUMillis: 100, Capability: "nnf:router"},
			nffg.TechDPDK:   {Image: "router:dpdk", CPUMillis: 1000, Capability: "dpdk"},
		},
	}))
	must(r.Add(&Template{
		Name:        "shaper",
		Ports:       2,
		WorkloadRAM: 1 * MB,
		Flavors: map[nffg.Technology]FlavorSpec{
			nffg.TechDocker: {Image: "shaper:docker", CPUMillis: 100, Capability: "docker"},
			nffg.TechNative: {Image: "shaper:native", CPUMillis: 50, Capability: "nnf:shaper"},
		},
	}))
	must(r.Add(&Template{
		Name:        "monitor",
		Ports:       2,
		WorkloadRAM: 1 * MB,
		Flavors: map[nffg.Technology]FlavorSpec{
			nffg.TechDocker: {Image: "monitor:docker", CPUMillis: 100, Capability: "docker"},
			nffg.TechNative: {Image: "monitor:native", CPUMillis: 50, Capability: "nnf:monitor"},
		},
	}))
	return r
}

// DefaultImages populates an image store with the artifacts the default
// repository references. Sizes for the ipsec images are Table 1's; Docker
// images share a common base layer, as real images built on one distro do.
func DefaultImages(store *imagestore.Store) error {
	base := imagestore.Layer{Digest: "docker-base-os", Size: 180 * MB}
	images := []imagestore.Image{
		{Name: "ipsec:vm", Kind: imagestore.KindVMImage,
			Layers: []imagestore.Layer{{Digest: "ipsec-vm-disk", Size: 522 * MB}}},
		{Name: "ipsec:docker", Kind: imagestore.KindDocker,
			Layers: []imagestore.Layer{base, {Digest: "ipsec-sw", Size: 60 * MB}}},
		{Name: "ipsec:native", Kind: imagestore.KindNativePkg,
			Layers: []imagestore.Layer{{Digest: "ipsec-pkg", Size: 5 * MB}}},

		{Name: "firewall:vm", Kind: imagestore.KindVMImage,
			Layers: []imagestore.Layer{{Digest: "firewall-vm-disk", Size: 480 * MB}}},
		{Name: "firewall:docker", Kind: imagestore.KindDocker,
			Layers: []imagestore.Layer{base, {Digest: "firewall-sw", Size: 12 * MB}}},
		{Name: "firewall:native", Kind: imagestore.KindNativePkg,
			Layers: []imagestore.Layer{{Digest: "firewall-pkg", Size: 1 * MB}}},

		{Name: "nat:docker", Kind: imagestore.KindDocker,
			Layers: []imagestore.Layer{base, {Digest: "nat-sw", Size: 8 * MB}}},
		{Name: "nat:native", Kind: imagestore.KindNativePkg,
			Layers: []imagestore.Layer{{Digest: "nat-pkg", Size: 1 * MB}}},

		{Name: "bridge:docker", Kind: imagestore.KindDocker,
			Layers: []imagestore.Layer{base, {Digest: "bridge-sw", Size: 4 * MB}}},
		{Name: "bridge:native", Kind: imagestore.KindNativePkg,
			Layers: []imagestore.Layer{{Digest: "bridge-pkg", Size: 512 * 1024}}},

		{Name: "router:docker", Kind: imagestore.KindDocker,
			Layers: []imagestore.Layer{base, {Digest: "router-sw", Size: 10 * MB}}},
		{Name: "router:native", Kind: imagestore.KindNativePkg,
			Layers: []imagestore.Layer{{Digest: "router-pkg", Size: 1 * MB}}},
		{Name: "router:dpdk", Kind: imagestore.KindDPDKApp,
			Layers: []imagestore.Layer{{Digest: "router-dpdk", Size: 35 * MB}}},

		{Name: "shaper:docker", Kind: imagestore.KindDocker,
			Layers: []imagestore.Layer{base, {Digest: "shaper-sw", Size: 5 * MB}}},
		{Name: "shaper:native", Kind: imagestore.KindNativePkg,
			Layers: []imagestore.Layer{{Digest: "shaper-pkg", Size: 512 * 1024}}},

		{Name: "monitor:docker", Kind: imagestore.KindDocker,
			Layers: []imagestore.Layer{base, {Digest: "monitor-sw", Size: 6 * MB}}},
		{Name: "monitor:native", Kind: imagestore.KindNativePkg,
			Layers: []imagestore.Layer{{Digest: "monitor-pkg", Size: 512 * 1024}}},
	}
	for _, im := range images {
		if err := store.Register(im); err != nil {
			return err
		}
	}
	return nil
}
