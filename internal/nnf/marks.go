package nnf

import (
	"fmt"
	"sync"
)

// Mark pool bounds: VLAN IDs reserved for NNF traffic marking. The range is
// kept clear of user-facing VLANs by convention.
const (
	MarkPoolStart uint16 = 3000
	MarkPoolEnd   uint16 = 3999
)

// MarkAllocator hands out distinct VLAN marks used to distinguish traffic
// of different service graphs inside shared NNFs.
type MarkAllocator struct {
	mu    sync.Mutex
	next  uint16
	free  []uint16
	inUse map[uint16]bool
}

// NewMarkAllocator returns an allocator over the reserved pool.
func NewMarkAllocator() *MarkAllocator {
	return &MarkAllocator{next: MarkPoolStart, inUse: make(map[uint16]bool)}
}

// Alloc reserves one mark.
func (m *MarkAllocator) Alloc() (uint16, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if n := len(m.free); n > 0 {
		mark := m.free[n-1]
		m.free = m.free[:n-1]
		m.inUse[mark] = true
		return mark, nil
	}
	if m.next > MarkPoolEnd {
		return 0, fmt.Errorf("nnf: mark pool exhausted (%d-%d all in use)", MarkPoolStart, MarkPoolEnd)
	}
	mark := m.next
	m.next++
	m.inUse[mark] = true
	return mark, nil
}

// AllocN reserves n marks atomically: either all succeed or none are held.
func (m *MarkAllocator) AllocN(n int) ([]uint16, error) {
	marks := make([]uint16, 0, n)
	for i := 0; i < n; i++ {
		mk, err := m.Alloc()
		if err != nil {
			for _, got := range marks {
				m.Free(got)
			}
			return nil, err
		}
		marks = append(marks, mk)
	}
	return marks, nil
}

// Free returns a mark to the pool. Freeing an unallocated mark is ignored.
func (m *MarkAllocator) Free(mark uint16) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if !m.inUse[mark] {
		return
	}
	delete(m.inUse, mark)
	m.free = append(m.free, mark)
}

// Available returns the number of marks Alloc can still hand out.
func (m *MarkAllocator) Available() int { return int(MarkPoolEnd-MarkPoolStart) + 1 - m.InUse() }

// InUse returns the number of allocated marks.
func (m *MarkAllocator) InUse() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.inUse)
}
