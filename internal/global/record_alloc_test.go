//go:build !race

package global

import (
	"runtime"
	"testing"
)

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

// TestRecordDecodeAllocs pins what a follower's decode of the chain's
// record allocates. Through encoding/json's reflection it took 224
// allocations and 12.9 KB, 148 of those allocations the four graphs' own
// decodes. The record's table reads it in 197 allocations and 12.5 KB: the
// graphs' decodes and the record's 49 (its maps, slices and strings). The
// ceilings are that reading plus 10%.
func TestRecordDecodeAllocs(t *testing.T) {
	const (
		maxAllocs = 217
		maxBytes  = 13700
	)
	data, err := encodeRecord(chainRecord(t))
	if err != nil {
		t.Fatal(err)
	}
	decode := func() {
		if _, err := decodeRecord("svc", data); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(100, decode)
	const rounds = 100
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < rounds; i++ {
		decode()
	}
	runtime.ReadMemStats(&after)
	bytes := (after.TotalAlloc - before.TotalAlloc) / rounds
	t.Logf("%.0f allocs, %d B per decode", allocs, bytes)
	if allocs > maxAllocs || bytes > maxBytes {
		t.Errorf("decoding the chain's record: %.0f allocs, %d B; ceilings %d, %d B", allocs, bytes, maxAllocs, maxBytes)
	}
}
