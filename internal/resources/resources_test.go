package resources

import (
	"fmt"
	"sync"
	"testing"
)

func TestAllocateRelease(t *testing.T) {
	p := NewPool(4000, 1024*MB)
	if err := p.Allocate("vm1", 1000, 400*MB); err != nil {
		t.Fatal(err)
	}
	usedCPU, totalCPU, usedRAM, _ := p.Usage()
	if usedCPU != 1000 || totalCPU != 4000 || usedRAM != 400*MB {
		t.Errorf("usage = %d/%d cpu, %d ram", usedCPU, totalCPU, usedRAM)
	}
	if err := p.Release("vm1"); err != nil {
		t.Fatal(err)
	}
	usedCPU, _, usedRAM, _ = p.Usage()
	if usedCPU != 0 || usedRAM != 0 {
		t.Error("release did not return resources")
	}
}

func TestExhaustion(t *testing.T) {
	p := NewPool(1000, 100*MB)
	if err := p.Allocate("a", 800, 50*MB); err != nil {
		t.Fatal(err)
	}
	if err := p.Allocate("b", 300, 10*MB); err == nil {
		t.Error("cpu overcommit allowed")
	}
	if err := p.Allocate("c", 100, 90*MB); err == nil {
		t.Error("ram overcommit allowed")
	}
	// A failed allocation must not leak partial usage.
	usedCPU, _, usedRAM, _ := p.Usage()
	if usedCPU != 800 || usedRAM != 50*MB {
		t.Errorf("usage after failures = %d cpu %d ram", usedCPU, usedRAM)
	}
}

func TestDuplicateOwnerAndUnknownRelease(t *testing.T) {
	p := NewPool(1000, 100*MB)
	if err := p.Allocate("x", 1, 1); err != nil {
		t.Fatal(err)
	}
	if err := p.Allocate("x", 1, 1); err == nil {
		t.Error("duplicate owner allowed")
	}
	if err := p.Release("ghost"); err == nil {
		t.Error("release of unknown owner allowed")
	}
	if err := p.Allocate("neg", -5, 0); err == nil {
		t.Error("negative cpu allowed")
	}
}

func TestCapabilities(t *testing.T) {
	p := NewPool(0, 0)
	p.AddCapability("kvm")
	p.AddCapability("nnf:ipsec")
	p.AddCapability("docker")
	if !p.Has("kvm") || !p.Has("nnf:ipsec") {
		t.Error("capabilities missing")
	}
	if p.Has("dpdk") {
		t.Error("phantom capability")
	}
	caps := p.Capabilities()
	if len(caps) != 3 || caps[0] != "docker" || caps[1] != "kvm" || caps[2] != "nnf:ipsec" {
		t.Errorf("Capabilities = %v", caps)
	}
	p.RemoveCapability("kvm")
	if p.Has("kvm") {
		t.Error("capability not removed")
	}
}

func TestGrantsSnapshot(t *testing.T) {
	p := NewPool(10000, 1000*MB)
	_ = p.Allocate("b", 1, 1)
	_ = p.Allocate("a", 2, 2)
	g := p.sortedGrants()
	if len(g) != 2 || g[0].Owner != "a" || g[1].Owner != "b" {
		t.Errorf("sortedGrants = %+v", g)
	}
}

func TestConcurrentAllocations(t *testing.T) {
	p := NewPool(1000, 1000)
	var wg sync.WaitGroup
	errs := make(chan error, 100)
	for i := 0; i < 100; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs <- p.Allocate(fmt.Sprintf("o%d", i), 100, 100)
		}(i)
	}
	wg.Wait()
	close(errs)
	ok := 0
	for err := range errs {
		if err == nil {
			ok++
		}
	}
	if ok != 10 {
		t.Errorf("admitted %d allocations of 100m each into 1000m, want 10", ok)
	}
}
