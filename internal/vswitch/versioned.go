package vswitch

import (
	"cmp"
	"slices"
)

// chunkMax bounds a chunk of a flow-table snapshot, and so what a commit
// copies per chunk it changes, however large the table.
const chunkMax = 64

// flowTable is one immutable snapshot of the flow table, a persistent
// value: the next shares every chunk a commit left alone. The packet path
// loads it once per packet; mutators publish the next one atomically.
type flowTable struct {
	// chunks hold the entries in match order (priority descending, oldest
	// first among equals), 1 to chunkMax to a chunk.
	chunks [][]*FlowEntry
	// cached: cacheMinEntries entries or more, so lanes use the microflow
	// cache. seq counts the snapshots published up to this one.
	cached bool
	seq    uint32
	// one backs chunks for a one-chunk table: list and header are one
	// allocation.
	one [1][]*FlowEntry
}

// len is the number of entries.
func (t *flowTable) len() int {
	n := 0
	for _, c := range t.chunks {
		n += len(c)
	}
	return n
}

// entries returns every entry in match order, in a new slice.
func (t *flowTable) entries() []*FlowEntry {
	all := make([]*FlowEntry, 0, t.len())
	for _, c := range t.chunks {
		all = append(all, c...)
	}
	return all
}

// lookupEntry finds the first entry in match order that matches key: the
// highest-priority one, the oldest among equals. Nil is the table miss.
func lookupEntry(t *flowTable, key *flowKey) *FlowEntry {
	for _, c := range t.chunks {
		for _, e := range c {
			if e.Match.matches(key) {
				return e
			}
		}
	}
	return nil
}

// commit returns the snapshot t becomes once the entries carrying a del
// cookie are removed and the add entries added, and how many it removed;
// nil when it changes nothing. It rebuilds only the chunks that lose or
// gain an entry, and the chunk list. An added entry goes after every entry
// of higher or equal priority, so its priority alone decides its chunk
// (chunkFor), and a stable sort of that chunk places it as a sort of the
// whole table would. A rebuilt chunk over chunkMax is split; one under
// half of it joins a neighbour it fits with (mergeSmall).
func (t *flowTable) commit(del []uint64, add []*FlowEntry) (*flowTable, int) {
	var spare [16][]*FlowEntry
	next, removed := spare[:0], 0
	chunks := t.chunks
	if len(chunks) == 0 {
		chunks = [][]*FlowEntry{nil}
	}
	for i, c := range chunks {
		kept, gained := 0, 0
		for _, e := range c {
			if !slices.Contains(del, e.Cookie) {
				kept++
			}
		}
		for _, e := range add {
			if t.chunkFor(e.Priority) == i {
				gained++
			}
		}
		if kept == len(c) && gained == 0 {
			next = append(next, c)
			continue
		}
		removed += len(c) - kept
		fresh := make([]*FlowEntry, 0, kept+gained)
		for _, e := range c {
			if !slices.Contains(del, e.Cookie) {
				fresh = append(fresh, e)
			}
		}
		for _, e := range add {
			if t.chunkFor(e.Priority) == i {
				fresh = append(fresh, e)
			}
		}
		slices.SortStableFunc(fresh, byPriority)
		for ; len(fresh) > chunkMax; fresh = fresh[chunkMax:] {
			next = append(next, fresh[:chunkMax:chunkMax])
		}
		next = append(next, fresh)
	}
	if removed == 0 && len(add) == 0 {
		return nil, 0
	}
	next = mergeSmall(next)
	n := &flowTable{seq: t.seq + 1}
	if n.chunks = n.one[:]; len(next) == 1 {
		n.one[0] = next[0]
	} else {
		n.chunks = append([][]*FlowEntry(nil), next...)
	}
	n.cached = n.len() >= cacheMinEntries
	return n, removed
}

// byPriority orders entries for matching, highest priority first.
func byPriority(a, b *FlowEntry) int { return cmp.Compare(b.Priority, a.Priority) }

// chunkFor returns the index of the chunk an entry of priority p is added
// to: the last one whose first entry outranks or equals it, else the first.
func (t *flowTable) chunkFor(p int) int {
	k := 0
	for i, c := range t.chunks {
		if c[0].Priority < p {
			break
		}
		k = i
	}
	return k
}

// mergeSmall drops empty chunks and joins each chunk under chunkMax/2 to
// its left neighbour when both fit one chunk. No two neighbours could be
// joined after a commit, so a join copies a rebuilt chunk and a neighbour.
func mergeSmall(chunks [][]*FlowEntry) [][]*FlowEntry {
	out := chunks[:0]
	for _, c := range chunks {
		if n := len(out); len(c) > 0 && n > 0 && len(out[n-1])+len(c) <= chunkMax && min(len(out[n-1]), len(c)) < chunkMax/2 {
			out[n-1] = slices.Concat(out[n-1], c)
		} else if len(c) > 0 {
			out = append(out, c)
		}
	}
	return out
}
