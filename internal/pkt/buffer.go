package pkt

import "errors"

// SerializeOptions tunes serialization behaviour.
type SerializeOptions struct {
	// FixLengths recomputes length fields (IPv4 total length, UDP length,
	// ...) from the actual payload sizes during serialization.
	FixLengths bool
	// ComputeChecksums recomputes checksums (IPv4 header, UDP, TCP, ICMP)
	// during serialization.
	ComputeChecksums bool
}

// SerializableLayer is a layer that can write itself to a SerializeBuffer.
type SerializableLayer interface {
	// SerializeTo prepends this layer's wire representation to b. The
	// current contents of b are treated as this layer's payload.
	SerializeTo(b *SerializeBuffer, opts SerializeOptions) error
}

// SerializeBuffer accumulates packet bytes back-to-front: each layer prepends
// its header in front of the bytes already written. The zero value is ready
// to use.
type SerializeBuffer struct {
	data  []byte
	start int
}

// NewSerializeBuffer returns a buffer with a small amount of headroom
// preallocated.
func NewSerializeBuffer() *SerializeBuffer {
	return NewSerializeBufferExpectedSize(64, 1024)
}

// NewSerializeBufferExpectedSize returns a buffer preallocating the given
// headroom for prepends and tailroom for appends, avoiding reallocation when
// the final packet fits the estimate.
func NewSerializeBufferExpectedSize(expectedPrepend, expectedTotal int) *SerializeBuffer {
	if expectedPrepend < 0 || expectedTotal < expectedPrepend {
		expectedPrepend, expectedTotal = 64, 1024
	}
	return &SerializeBuffer{
		data:  make([]byte, expectedPrepend, expectedTotal),
		start: expectedPrepend,
	}
}

// Bytes returns the serialized packet accumulated so far. The returned slice
// aliases the buffer and is invalidated by further Prepend/Append calls.
func (b *SerializeBuffer) Bytes() []byte { return b.data[b.start:] }

// PrependBytes returns a slice of n bytes placed immediately before the
// current contents; the caller fills it with a layer header.
func (b *SerializeBuffer) PrependBytes(n int) ([]byte, error) {
	if n < 0 {
		return nil, errors.New("pkt: cannot prepend negative length")
	}
	if b.start < n {
		// Grow headroom: reallocate with extra space in front.
		grow := n - b.start
		if grow < 64 {
			grow = 64
		}
		nd := make([]byte, len(b.data)+grow)
		copy(nd[grow:], b.data)
		b.data = nd
		b.start += grow
	}
	b.start -= n
	return b.data[b.start : b.start+n], nil
}

// Clear resets the buffer to empty, retaining its allocation.
func (b *SerializeBuffer) Clear() {
	b.start = cap(b.data) / 2
	if b.start > len(b.data) {
		b.start = len(b.data)
	}
	b.data = b.data[:b.start]
}

// SerializeLayers clears b and serializes the given layers front-to-back
// (so they are written back-to-front into the buffer). The first layer ends
// up outermost on the wire.
func SerializeLayers(b *SerializeBuffer, opts SerializeOptions, layers ...SerializableLayer) error {
	b.Clear()
	for i := len(layers) - 1; i >= 0; i-- {
		if err := layers[i].SerializeTo(b, opts); err != nil {
			return err
		}
	}
	return nil
}

// Serialize is a convenience wrapper allocating a fresh buffer and returning
// the encoded bytes of the given layer stack.
func Serialize(opts SerializeOptions, layers ...SerializableLayer) ([]byte, error) {
	b := NewSerializeBuffer()
	if err := SerializeLayers(b, opts, layers...); err != nil {
		return nil, err
	}
	out := make([]byte, len(b.Bytes()))
	copy(out, b.Bytes())
	return out, nil
}
