package nnf

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/nf"
	"repro/internal/pkt"
)

// Adapter is the adaptation layer for single-interface NNFs: it exposes one
// port (port 0) toward the switch and demultiplexes marked traffic into the
// wrapped processor's logical ports.
//
// Each service graph sharing the NNF owns a set of marks: frames arriving
// with an ingress mark are handed to the mapped inner port (tag preserved,
// so mark-aware NNFs select the right internal path); frames the inner NF
// emits are re-tagged with the graph's egress mark for that inner port, so
// the switch can steer them onward and strip the tag.
type Adapter struct {
	inner nf.Processor

	mu    sync.RWMutex
	paths map[uint16]*AdapterPath // by ingress mark

	unknownMark atomic.Uint64
}

// AdapterPath maps one ingress mark of one graph.
type AdapterPath struct {
	// InnerPort receives frames carrying the ingress mark.
	InnerPort int
	// EgressMarks assigns the outgoing tag per inner emission port.
	EgressMarks []uint16
}

// NewAdapter wraps a processor.
func NewAdapter(inner nf.Processor) *Adapter {
	return &Adapter{inner: inner, paths: make(map[uint16]*AdapterPath)}
}

// AddPath installs the mapping for one ingress mark.
func (a *Adapter) AddPath(ingressMark uint16, path AdapterPath) error {
	if ingressMark == 0 || ingressMark > 4094 {
		return fmt.Errorf("nnf: ingress mark %d out of range", ingressMark)
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if _, dup := a.paths[ingressMark]; dup {
		return fmt.Errorf("nnf: ingress mark %d already mapped", ingressMark)
	}
	a.paths[ingressMark] = &path
	return nil
}

// RemovePath drops the mapping for one ingress mark.
func (a *Adapter) RemovePath(ingressMark uint16) {
	a.mu.Lock()
	defer a.mu.Unlock()
	delete(a.paths, ingressMark)
}

// numPaths returns the number of mapped ingress marks.
func (a *Adapter) numPaths() int {
	a.mu.RLock()
	defer a.mu.RUnlock()
	return len(a.paths)
}

// unknownMarkDrops counts frames arriving without a mapped mark.
func (a *Adapter) unknownMarkDrops() uint64 { return a.unknownMark.Load() }

// vlanID reads the 802.1Q tag of a frame, if present.
func vlanID(frame []byte) (uint16, bool) {
	if len(frame) < pkt.EthernetHeaderLen+pkt.VLANHeaderLen ||
		frame[12] != 0x81 || frame[13] != 0x00 {
		return 0, false
	}
	return (uint16(frame[14])<<8 | uint16(frame[15])) & 0x0fff, true
}

// retag rewrites the VLAN id of a tagged frame in place on a copy.
func retag(frame []byte, id uint16) []byte {
	out := make([]byte, len(frame))
	copy(out, frame)
	out[14] = out[14]&0xf0 | byte(id>>8&0x0f)
	out[15] = byte(id)
	return out
}

// Process implements nf.Processor. The adapter has exactly one port.
func (a *Adapter) Process(inPort int, frame []byte) (nf.Result, error) {
	if inPort != 0 {
		return nf.Result{}, fmt.Errorf("nnf: adapter has a single interface (port 0), got %d", inPort)
	}
	mark, tagged := vlanID(frame)
	if !tagged {
		a.unknownMark.Add(1)
		return nf.Result{}, nil
	}
	a.mu.RLock()
	path, ok := a.paths[mark]
	a.mu.RUnlock()
	if !ok {
		a.unknownMark.Add(1)
		return nf.Result{}, nil
	}
	res, err := a.inner.Process(path.InnerPort, frame)
	if err != nil {
		return nf.Result{}, err
	}
	out := nf.Result{CryptoBytes: res.CryptoBytes}
	for _, e := range res.Emissions {
		if e.Port < 0 || e.Port >= len(path.EgressMarks) {
			continue
		}
		var f []byte
		if _, stillTagged := vlanID(e.Frame); stillTagged {
			f = retag(e.Frame, path.EgressMarks[e.Port])
		} else {
			// The inner NF stripped the tag (e.g. it re-framed the
			// packet): push a fresh one.
			f = pushTag(e.Frame, path.EgressMarks[e.Port])
		}
		out.Emissions = append(out.Emissions, nf.Emission{Port: 0, Frame: f})
	}
	return out, nil
}

// pushTag inserts an 802.1Q tag into an untagged frame.
func pushTag(frame []byte, id uint16) []byte {
	if len(frame) < pkt.EthernetHeaderLen {
		return frame
	}
	out := make([]byte, len(frame)+pkt.VLANHeaderLen)
	copy(out, frame[:12])
	out[12], out[13] = 0x81, 0x00
	out[14] = byte(id >> 8 & 0x0f)
	out[15] = byte(id)
	copy(out[16:], frame[12:])
	return out
}
