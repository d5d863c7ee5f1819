//go:build !poolcheck

package pkt

import "sync"

// FrameBufferSize is the capacity class of pooled frame buffers: large
// enough for an MTU-sized frame plus encapsulation headroom (VLAN tags, ESP
// tunnel overhead). Requests above this size fall back to the allocator.
const FrameBufferSize = 2048

var framePool = sync.Pool{
	New: func() any { return new([FrameBufferSize]byte) },
}

// GetBuffer returns a length-n byte slice backed by the shared frame-buffer
// pool when n fits FrameBufferSize, and a fresh allocation otherwise. The
// contents are unspecified; callers overwrite them. Whoever holds the buffer
// returns it with PutBuffer once nothing references it: a switch port facing
// an NF, an NF runtime and a traffic sink each own what they are handed
// (README, "Frame ownership"); a buffer that escapes into a long-lived
// structure may simply be dropped for the GC. Building with the poolcheck tag
// swaps this pool for a checked one (pool_check.go).
func GetBuffer(n int) []byte {
	if n > FrameBufferSize {
		return make([]byte, n)
	}
	return framePool.Get().(*[FrameBufferSize]byte)[:n]
}

// PutBuffer recycles a buffer previously handed out by GetBuffer. Buffers of
// any other capacity class (including exact-size allocations such as
// serialized packets) are silently ignored, so it is always safe to call on
// a frame of unknown provenance — but never on one that may still be
// referenced elsewhere.
func PutBuffer(b []byte) {
	if cap(b) != FrameBufferSize {
		return
	}
	framePool.Put((*[FrameBufferSize]byte)(b[0:FrameBufferSize:FrameBufferSize]))
}
