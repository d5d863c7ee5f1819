package vswitch

import (
	"cmp"
	"math/rand"
	"slices"
	"testing"
)

// TestCommitMatchesFlatTable drives seeded random CommitFlows sequences
// (deletes by cookie, adds of up to 150 entries at a few priorities, so
// ties and chunk splits are common) against a flat reference: the filtered
// old entries, then the adds, sorted stably by priority. After every
// commit the chunked table holds the same entries in the same order, the
// commit removed as many, a lookup on every in_port finds the same first
// match, and the chunks keep their shape: none empty, none over chunkMax,
// no two neighbours that mergeSmall would join.
func TestCommitMatchesFlatTable(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		sw := New("prop", 1)
		var flat []*FlowEntry
		for step := 0; step < 200; step++ {
			var del []uint64
			for i := rng.Intn(3); i > 0; i-- {
				del = append(del, uint64(rng.Intn(12)))
			}
			var add []*FlowEntry
			n := rng.Intn(6)
			if rng.Intn(20) == 0 {
				n = rng.Intn(150)
			}
			for i := 0; i < n; i++ {
				add = append(add, &FlowEntry{Priority: 10 * rng.Intn(4), Cookie: uint64(rng.Intn(12)),
					Match: MatchAll().WithInPort(uint32(1 + rng.Intn(8)))})
			}
			before := len(flat)
			flat = slices.DeleteFunc(slices.Clone(flat), func(e *FlowEntry) bool { return slices.Contains(del, e.Cookie) })
			wantRemoved := before - len(flat)
			flat = append(flat, add...)
			slices.SortStableFunc(flat, func(a, b *FlowEntry) int { return cmp.Compare(b.Priority, a.Priority) })

			removed, err := sw.CommitFlows(del, add)
			if err != nil {
				t.Fatal(err)
			}
			if removed != wantRemoved {
				t.Fatalf("seed %d step %d: removed %d, flat table %d", seed, step, removed, wantRemoved)
			}
			tbl := sw.table.Load()
			if got := sw.Flows(); !slices.Equal(got, flat) {
				t.Fatalf("seed %d step %d: entry order differs from the flat table", seed, step)
			}
			if tbl.cached != (len(flat) >= cacheMinEntries) || sw.FlowCount() != len(flat) {
				t.Fatalf("seed %d step %d: %d entries, cached %v", seed, step, sw.FlowCount(), tbl.cached)
			}
			for i, c := range tbl.chunks {
				if len(c) == 0 || len(c) > chunkMax {
					t.Fatalf("seed %d step %d: chunk %d holds %d entries", seed, step, i, len(c))
				}
				if i > 0 && len(tbl.chunks[i-1])+len(c) <= chunkMax && min(len(tbl.chunks[i-1]), len(c)) < chunkMax/2 {
					t.Fatalf("seed %d step %d: chunks %d and %d (%d + %d entries) were left unjoined", seed, step, i-1, i, len(tbl.chunks[i-1]), len(c))
				}
			}
			for port := uint32(0); port <= 9; port++ {
				key := flowKey{inPort: port}
				var want *FlowEntry
				for _, e := range flat {
					if e.Match.matches(&key) {
						want = e
						break
					}
				}
				if got := lookupEntry(tbl, &key); got != want {
					t.Fatalf("seed %d step %d: in_port %d looks up %v, flat table %v", seed, step, port, got, want)
				}
			}
		}
	}
}

// TestCommitCopiesOnlyWhatChanges: over a table of 1024 entries, adding
// or removing one entry rebuilds at most the chunk it lands in and one
// neighbour; every other chunk is the previous snapshot's, shared.
func TestCommitCopiesOnlyWhatChanges(t *testing.T) {
	sw := New("big", 1)
	for i := 0; i < 512; i++ {
		add := []*FlowEntry{
			{Priority: 10, Cookie: uint64(i), Match: MatchAll().WithInPort(1)},
			{Priority: 10, Cookie: uint64(i), Match: MatchAll().WithInPort(2)},
		}
		if _, err := sw.CommitFlows(nil, add); err != nil {
			t.Fatal(err)
		}
	}
	shared := func(prev, next *flowTable) (kept, rebuilt int) {
		for _, c := range next.chunks {
			if slices.ContainsFunc(prev.chunks, func(p []*FlowEntry) bool { return &p[0] == &c[0] }) {
				kept++
			} else {
				rebuilt++
			}
		}
		return kept, rebuilt
	}
	for name, commit := range map[string]func() (int, error){
		"add at the end": func() (int, error) {
			return sw.CommitFlows(nil, []*FlowEntry{{Priority: 10, Cookie: 9999, Match: MatchAll().WithInPort(3)}})
		},
		"add at the front": func() (int, error) {
			return sw.CommitFlows(nil, []*FlowEntry{{Priority: 50, Cookie: 9998, Match: MatchAll().WithInPort(3)}})
		},
		"remove from the middle": func() (int, error) { return sw.CommitFlows([]uint64{256}, nil) },
	} {
		prev := sw.table.Load()
		if _, err := commit(); err != nil {
			t.Fatal(err)
		}
		kept, rebuilt := shared(prev, sw.table.Load())
		if rebuilt > 2 || kept < len(prev.chunks)-2 {
			t.Errorf("%s: %d of %d chunks rebuilt, %d shared", name, rebuilt, kept+rebuilt, kept)
		}
	}
}
