package repository

import (
	"testing"

	"repro/internal/imagestore"
	"repro/internal/nffg"
)

func TestDefaultCatalogConsistency(t *testing.T) {
	r := Default()
	store := imagestore.NewStore()
	if err := DefaultImages(store); err != nil {
		t.Fatal(err)
	}
	names := r.names()
	if len(names) == 0 {
		t.Fatal("empty catalog")
	}
	// Every flavor of every template must reference a registered image
	// and a plausible capability.
	for _, name := range names {
		tpl, ok := r.Lookup(name)
		if !ok {
			t.Fatalf("Lookup(%q) failed for listed template", name)
		}
		if tpl.Ports < 1 || tpl.WorkloadRAM == 0 {
			t.Errorf("%s: ports=%d ram=%d", name, tpl.Ports, tpl.WorkloadRAM)
		}
		if len(tpl.SupportedTechnologies()) == 0 {
			t.Errorf("%s: no flavors", name)
		}
		for tech, spec := range tpl.Flavors {
			if !tech.Valid() || tech == nffg.TechAny {
				t.Errorf("%s: invalid technology %q", name, tech)
			}
			if _, inCatalog := store.Lookup(spec.Image); !inCatalog {
				t.Errorf("%s/%s: image %q not registered", name, tech, spec.Image)
			}
			if spec.CPUMillis <= 0 {
				t.Errorf("%s/%s: cpu %d", name, tech, spec.CPUMillis)
			}
			if spec.Capability == "" {
				t.Errorf("%s/%s: empty capability", name, tech)
			}
		}
	}
}

func TestIPsecTemplateMatchesTable1(t *testing.T) {
	r := Default()
	tpl, ok := r.Lookup("ipsec")
	if !ok {
		t.Fatal("no ipsec template")
	}
	if tpl.WorkloadRAM != 20342374 {
		t.Errorf("workload RAM = %d, want 19.4 MB", tpl.WorkloadRAM)
	}
	techs := tpl.SupportedTechnologies()
	if len(techs) != 3 {
		t.Errorf("flavors = %v, want docker/native/vm", techs)
	}
	store := imagestore.NewStore()
	_ = DefaultImages(store)
	for img, wantMB := range map[string]uint64{
		"ipsec:vm": 522, "ipsec:docker": 240, "ipsec:native": 5,
	} {
		size, err := store.ImageDiskSize(img)
		if err != nil {
			t.Fatal(err)
		}
		if size/MB != wantMB {
			t.Errorf("%s = %d MB, want %d", img, size/MB, wantMB)
		}
	}
}

func TestAddValidation(t *testing.T) {
	r := New()
	ok := &Template{Name: "x", Ports: 1, Flavors: map[nffg.Technology]FlavorSpec{
		nffg.TechDocker: {Image: "x:docker", CPUMillis: 1, Capability: "docker"},
	}}
	if err := r.Add(ok); err != nil {
		t.Fatal(err)
	}
	if err := r.Add(ok); err == nil {
		t.Error("duplicate template accepted")
	}
	if err := r.Add(&Template{Name: "", Ports: 1, Flavors: ok.Flavors}); err == nil {
		t.Error("empty name accepted")
	}
	if err := r.Add(&Template{Name: "y", Ports: 0, Flavors: ok.Flavors}); err == nil {
		t.Error("zero ports accepted")
	}
	if err := r.Add(&Template{Name: "z", Ports: 1}); err == nil {
		t.Error("no flavors accepted")
	}
	if _, ok := r.Lookup("ghost"); ok {
		t.Error("phantom template")
	}
}

func TestDockerImagesShareBaseLayer(t *testing.T) {
	// The CPE argument: many Docker NFs share one distro base, so the
	// second container costs only its delta — still far more than native
	// packages.
	store := imagestore.NewStore()
	_ = DefaultImages(store)
	first, err := store.Pull("ipsec:docker")
	if err != nil {
		t.Fatal(err)
	}
	second, err := store.Pull("firewall:docker")
	if err != nil {
		t.Fatal(err)
	}
	if first != 240*MB {
		t.Errorf("first pull = %d MB", first/MB)
	}
	if second >= 60*MB {
		t.Errorf("second pull should reuse the base layer, transferred %d MB", second/MB)
	}
}
