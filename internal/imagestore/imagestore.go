// Package imagestore models the NF image artifacts present on the compute
// node: VM disk images, Docker image layers and native packages.
//
// Table 1 of the paper compares the on-disk footprint of the same network
// function in three packagings (522 MB VM image, 240 MB Docker image, 5 MB
// native package). The store reproduces that accounting: every image
// declares its size; Docker images may share base layers, so pulling two
// containers built on the same base charges the base once — exactly the
// reason container images beat VM images but still lose to native packages
// on "resource-constrained devices".
package imagestore

import (
	"fmt"
	"sync"
)

// MB is one mebibyte in bytes.
const MB = 1 << 20

// Kind classifies image artifacts.
type Kind string

// Image kinds.
const (
	KindVMImage   Kind = "vm-image"   // e.g. qcow2 disk
	KindDocker    Kind = "docker"     // layered container image
	KindNativePkg Kind = "native-pkg" // distro package or built-in binary
	KindDPDKApp   Kind = "dpdk-app"   // userspace datapath binary
)

// Layer is one content-addressed slice of an image.
type Layer struct {
	Digest string
	Size   uint64
}

// Image is one NF artifact available in a remote registry.
type Image struct {
	Name string // e.g. "ipsec:vm"
	Kind Kind
	// Layers composes the image; single-layer for VM/native artifacts.
	Layers []Layer
}

// Size returns the image's total byte size.
func (im Image) Size() uint64 {
	var s uint64
	for _, l := range im.Layers {
		s += l.Size
	}
	return s
}

// Store is the node's local image cache plus its catalog of remotely
// available images.
type Store struct {
	mu      sync.Mutex
	catalog map[string]Image
	// pulled maps layer digest -> refcount of local images using it.
	pulled map[string]int
	// layerSize remembers digests' sizes for accounting.
	layerSize map[string]uint64
	// localImages maps image name -> pull count.
	localImages map[string]int
}

// NewStore creates an empty store.
func NewStore() *Store {
	return &Store{
		catalog:     make(map[string]Image),
		pulled:      make(map[string]int),
		layerSize:   make(map[string]uint64),
		localImages: make(map[string]int),
	}
}

// Register adds an image to the remote catalog.
func (s *Store) Register(im Image) error {
	if im.Name == "" {
		return fmt.Errorf("imagestore: image with empty name")
	}
	if len(im.Layers) == 0 {
		return fmt.Errorf("imagestore: image %q has no layers", im.Name)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, dup := s.catalog[im.Name]; dup {
		return fmt.Errorf("imagestore: image %q already registered", im.Name)
	}
	for _, l := range im.Layers {
		if l.Digest == "" {
			return fmt.Errorf("imagestore: image %q has a layer without digest", im.Name)
		}
		if sz, seen := s.layerSize[l.Digest]; seen && sz != l.Size {
			return fmt.Errorf("imagestore: digest %q registered with conflicting sizes", l.Digest)
		}
	}
	for _, l := range im.Layers {
		s.layerSize[l.Digest] = l.Size
	}
	s.catalog[im.Name] = im
	return nil
}

// Lookup finds an image in the catalog.
func (s *Store) Lookup(name string) (Image, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	im, ok := s.catalog[name]
	return im, ok
}

// Pull materializes an image locally and returns the bytes actually
// transferred: layers already present (shared with other local images) are
// free, which is how Docker layer reuse is modeled.
func (s *Store) Pull(name string) (transferred uint64, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	im, ok := s.catalog[name]
	if !ok {
		return 0, fmt.Errorf("imagestore: image %q not in catalog", name)
	}
	for _, l := range im.Layers {
		if s.pulled[l.Digest] == 0 {
			transferred += l.Size
		}
		s.pulled[l.Digest]++
		s.layerSize[l.Digest] = l.Size
	}
	s.localImages[name]++
	return transferred, nil
}

// Remove drops one local reference to an image, freeing layers whose
// refcount reaches zero.
func (s *Store) Remove(name string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.localImages[name] == 0 {
		return fmt.Errorf("imagestore: image %q not pulled", name)
	}
	im := s.catalog[name]
	for _, l := range im.Layers {
		s.pulled[l.Digest]--
		if s.pulled[l.Digest] <= 0 {
			delete(s.pulled, l.Digest)
		}
	}
	s.localImages[name]--
	if s.localImages[name] == 0 {
		delete(s.localImages, name)
	}
	return nil
}

// DiskUsage returns the bytes currently occupied locally (each shared layer
// counted once).
func (s *Store) DiskUsage() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	var total uint64
	for digest := range s.pulled {
		total += s.layerSize[digest]
	}
	return total
}

// ImageDiskSize returns the on-disk size of one image as if it were the only
// one present (the "Image size" column of Table 1).
func (s *Store) ImageDiskSize(name string) (uint64, error) {
	im, ok := s.Lookup(name)
	if !ok {
		return 0, fmt.Errorf("imagestore: image %q not in catalog", name)
	}
	return im.Size(), nil
}
