//go:build poolcheck

package pkt

import (
	"fmt"
	"sync"
)

// This file replaces pool.go under `go test -tags poolcheck`: a
// mutex-guarded free list instead of the sync.Pool, so a buffer never
// vanishes from it and every check below is exact. A second put of a buffer
// panics; a put buffer is poisoned, and the get that hands it out again
// panics if a byte changed, which catches a write after put; Outstanding
// reads gets − puts.

// FrameBufferSize is the capacity class of pooled frame buffers (pool.go).
const FrameBufferSize = 2048

// poison fills every buffer on the free list.
const poison = 0xa5

var checked struct {
	sync.Mutex
	free       []*[FrameBufferSize]byte
	onFree     map[*[FrameBufferSize]byte]bool
	gets, puts int64
}

// GetBuffer is pool.go's GetBuffer, from the checked free list.
func GetBuffer(n int) []byte {
	if n > FrameBufferSize {
		return make([]byte, n)
	}
	checked.Lock()
	defer checked.Unlock()
	var b *[FrameBufferSize]byte
	if k := len(checked.free); k == 0 {
		b = new([FrameBufferSize]byte)
	} else {
		b = checked.free[k-1]
		checked.free = checked.free[:k-1]
		delete(checked.onFree, b)
		for i, v := range b {
			if v != poison {
				panic(fmt.Sprintf("pkt: buffer %p written at offset %d after PutBuffer", b, i))
			}
		}
	}
	checked.gets++
	return b[:n]
}

// PutBuffer is pool.go's PutBuffer, onto the checked free list.
func PutBuffer(b []byte) {
	if cap(b) != FrameBufferSize {
		return
	}
	p := (*[FrameBufferSize]byte)(b[0:FrameBufferSize:FrameBufferSize])
	checked.Lock()
	defer checked.Unlock()
	if checked.onFree[p] {
		panic(fmt.Sprintf("pkt: buffer %p put twice", p))
	}
	if checked.onFree == nil {
		checked.onFree = make(map[*[FrameBufferSize]byte]bool)
	}
	for i := range p {
		p[i] = poison
	}
	checked.onFree[p] = true
	checked.free = append(checked.free, p)
	checked.puts++
}

// Outstanding reports how many pooled buffers were handed out and not put
// back: gets − puts.
func Outstanding() int64 {
	checked.Lock()
	defer checked.Unlock()
	return checked.gets - checked.puts
}
