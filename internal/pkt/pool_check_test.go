//go:build poolcheck

package pkt

import (
	"strings"
	"testing"
)

// mustPanic runs fn and returns its panic message, failing if it returns.
func mustPanic(t *testing.T, fn func()) (msg string) {
	t.Helper()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("no panic")
		}
		msg, _ = r.(string)
	}()
	fn()
	return ""
}

// TestCheckedPoolCatchesDoublePut plants a second put of one buffer.
func TestCheckedPoolCatchesDoublePut(t *testing.T) {
	before := Outstanding()
	b := GetBuffer(64)
	if got := Outstanding() - before; got != 1 {
		t.Fatalf("Outstanding rose by %d for one get, want 1", got)
	}
	PutBuffer(b)
	if got := Outstanding() - before; got != 0 {
		t.Fatalf("Outstanding is %d after the put, want 0", got)
	}
	msg := mustPanic(t, func() { PutBuffer(b[:10]) })
	if !strings.Contains(msg, "put twice") {
		t.Errorf("double put panicked with %q", msg)
	}
	// The buffer is still on the free list once, untouched: it comes back.
	if c := GetBuffer(32); &c[0] != &b[0] {
		t.Error("the buffer put once is not the next one handed out")
	} else {
		PutBuffer(c)
	}
}

// TestCheckedPoolCatchesWriteAfterPut plants a write into a put buffer:
// the get that would hand it out again panics, naming the offset.
func TestCheckedPoolCatchesWriteAfterPut(t *testing.T) {
	b := GetBuffer(64)
	PutBuffer(b)
	b[17] = 1
	msg := mustPanic(t, func() { GetBuffer(64) })
	if !strings.Contains(msg, "written at offset 17 after PutBuffer") {
		t.Errorf("write after put panicked with %q", msg)
	}
	// The corrupted buffer left the free list: the pool still works.
	PutBuffer(GetBuffer(64))
}

// TestCheckedPoolIgnoresForeignBuffers: buffers of another capacity class
// are neither counted nor kept, as in the default pool.
func TestCheckedPoolIgnoresForeignBuffers(t *testing.T) {
	before := Outstanding()
	PutBuffer(make([]byte, 10))
	big := GetBuffer(FrameBufferSize + 1)
	PutBuffer(big)
	if got := Outstanding() - before; got != 0 {
		t.Errorf("Outstanding moved by %d on foreign buffers", got)
	}
}
