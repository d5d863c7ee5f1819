//go:build !race

package global

import "testing"

// TestRecordEncodeAllocs: the six-NF chain's MarshalJSON and the record of
// its three-node split (3 902 bytes) each allocate once, the output itself.
// Through encoding/json's reflection, the graph's wire structs and its
// String-built port references they cost 34 and 113 allocations.
func TestRecordEncodeAllocs(t *testing.T) {
	dep := chainRecord(t)
	if n := testing.AllocsPerRun(100, func() {
		if _, err := dep.Desired.MarshalJSON(); err != nil {
			t.Fatal(err)
		}
	}); n != 1 {
		t.Errorf("the chain's MarshalJSON allocates %v times, want 1", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		if _, err := encodeRecord(dep); err != nil {
			t.Fatal(err)
		}
	}); n != 1 {
		t.Errorf("the chain's deployment record allocates %v times, want 1", n)
	}
}
