package imagestore

import "testing"

func table1Images() []Image {
	return []Image{
		{Name: "ipsec:vm", Kind: KindVMImage, Layers: []Layer{
			{Digest: "vm-disk-ipsec", Size: 522 * MB},
		}},
		{Name: "ipsec:docker", Kind: KindDocker, Layers: []Layer{
			{Digest: "base-os", Size: 180 * MB},
			{Digest: "strongswan", Size: 60 * MB},
		}},
		{Name: "ipsec:native", Kind: KindNativePkg, Layers: []Layer{
			{Digest: "strongswan-pkg", Size: 5 * MB},
		}},
		{Name: "firewall:docker", Kind: KindDocker, Layers: []Layer{
			{Digest: "base-os", Size: 180 * MB}, // shared with ipsec:docker
			{Digest: "iptables", Size: 12 * MB},
		}},
	}
}

func newStore(t *testing.T) *Store {
	t.Helper()
	s := NewStore()
	for _, im := range table1Images() {
		if err := s.Register(im); err != nil {
			t.Fatal(err)
		}
	}
	return s
}

func TestTable1Sizes(t *testing.T) {
	s := newStore(t)
	for name, want := range map[string]uint64{
		"ipsec:vm":     522 * MB,
		"ipsec:docker": 240 * MB,
		"ipsec:native": 5 * MB,
	} {
		got, err := s.ImageDiskSize(name)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("%s size = %d MB, want %d MB", name, got/MB, want/MB)
		}
	}
}

func TestPullAccountsTransfer(t *testing.T) {
	s := newStore(t)
	n, err := s.Pull("ipsec:docker")
	if err != nil {
		t.Fatal(err)
	}
	if n != 240*MB {
		t.Errorf("first pull transferred %d MB, want 240", n/MB)
	}
	// Second image shares the base layer: only the delta transfers.
	n, err = s.Pull("firewall:docker")
	if err != nil {
		t.Fatal(err)
	}
	if n != 12*MB {
		t.Errorf("shared-base pull transferred %d MB, want 12", n/MB)
	}
	if du := s.DiskUsage(); du != 252*MB {
		t.Errorf("disk usage = %d MB, want 252", du/MB)
	}
}

func TestRemoveRefcountsLayers(t *testing.T) {
	s := newStore(t)
	_, _ = s.Pull("ipsec:docker")
	_, _ = s.Pull("firewall:docker")
	if err := s.Remove("ipsec:docker"); err != nil {
		t.Fatal(err)
	}
	// base-os still referenced by firewall:docker.
	if du := s.DiskUsage(); du != 192*MB {
		t.Errorf("disk usage = %d MB, want 192", du/MB)
	}
	if err := s.Remove("firewall:docker"); err != nil {
		t.Fatal(err)
	}
	if du := s.DiskUsage(); du != 0 {
		t.Errorf("disk usage = %d MB, want 0", du/MB)
	}
	if err := s.Remove("firewall:docker"); err == nil {
		t.Error("removing unpulled image allowed")
	}
}

func TestPullSameImageTwice(t *testing.T) {
	s := newStore(t)
	_, _ = s.Pull("ipsec:native")
	n, _ := s.Pull("ipsec:native")
	if n != 0 {
		t.Errorf("re-pull transferred %d bytes, want 0", n)
	}
	if s.localImages["ipsec:native"] != 2 || len(s.localImages) != 1 {
		t.Errorf("local images = %v, want ipsec:native pulled twice", s.localImages)
	}
	_ = s.Remove("ipsec:native")
	if du := s.DiskUsage(); du != 5*MB {
		t.Errorf("after one remove of double-pull, usage = %d MB, want 5", du/MB)
	}
	_ = s.Remove("ipsec:native")
	if du := s.DiskUsage(); du != 0 {
		t.Errorf("usage = %d MB, want 0", du/MB)
	}
}

func TestRegisterRejections(t *testing.T) {
	s := newStore(t)
	if err := s.Register(Image{Name: "", Kind: KindDocker, Layers: []Layer{{Digest: "d", Size: 1}}}); err == nil {
		t.Error("empty name accepted")
	}
	if err := s.Register(Image{Name: "x", Kind: KindDocker}); err == nil {
		t.Error("no layers accepted")
	}
	if err := s.Register(Image{Name: "ipsec:vm", Kind: KindVMImage, Layers: []Layer{{Digest: "d2", Size: 1}}}); err == nil {
		t.Error("duplicate name accepted")
	}
	if err := s.Register(Image{Name: "y", Kind: KindDocker, Layers: []Layer{{Digest: "", Size: 1}}}); err == nil {
		t.Error("empty digest accepted")
	}
	if err := s.Register(Image{Name: "z", Kind: KindDocker, Layers: []Layer{{Digest: "base-os", Size: 1}}}); err == nil {
		t.Error("conflicting digest size accepted")
	}
	if _, err := s.Pull("ghost"); err == nil {
		t.Error("pull of unknown image allowed")
	}
	if _, err := s.ImageDiskSize("ghost"); err == nil {
		t.Error("size of unknown image returned")
	}
}
