//go:build !race

// Allocation figures differ under the race detector's instrumentation.

package cluster

import (
	"encoding/json"
	"runtime"
	"strings"
	"testing"
)

// TestAppendWireAllocs pins what one append round trip of the in-process
// transport allocates: localPeer.Append's encode and decode of a one-op
// request carrying a 6 KB record. json.Marshal and json.Unmarshal, which
// carried it before the codec, took 16 allocations and 12.9 KB; the codec
// reads 7 (the request buffer, the request, the ops slice, four strings)
// and 6.3 KB. The ceilings are that reading plus 10%.
func TestAppendWireAllocs(t *testing.T) {
	const (
		maxAllocs = 7
		maxBytes  = 7100
	)
	record, err := json.Marshal(map[string]string{"graph": strings.Repeat("<vnf>", 400)})
	if err != nil {
		t.Fatal(err)
	}
	req := AppendRequest{ClusterID: "ha", Leader: "r1", Term: 3, CommitSeq: 41,
		Ops: []Op{{Seq: 42, Term: 3, Kind: OpDeploy, Key: "svc", Data: record}}}
	roundTrip := func() {
		data, err := encodeAppend(&req)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := decodeAppend(data); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(100, roundTrip)
	const rounds = 100
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < rounds; i++ {
		roundTrip()
	}
	runtime.ReadMemStats(&after)
	bytes := (after.TotalAlloc - before.TotalAlloc) / rounds
	t.Logf("%.0f allocs, %d B per round trip", allocs, bytes)
	if allocs > maxAllocs || bytes > maxBytes {
		t.Errorf("append round trip: %.0f allocs, %d B; ceilings %d, %d B", allocs, bytes, maxAllocs, maxBytes)
	}
}
