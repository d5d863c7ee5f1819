package cluster

import (
	"encoding/json"
	"fmt"
	"sort"
	"sync"
)

// OpKind names one desired-state mutation in the replicated intent log.
// The set mirrors the orchestrator's mutating entry points: graph
// lifecycle ops carry the full deployment record, fleet ops carry node
// and link records.
type OpKind string

const (
	OpDeploy     OpKind = "deploy"
	OpUpdate     OpKind = "update"
	OpUndeploy   OpKind = "undeploy"
	OpScale      OpKind = "scale"
	OpNodeAdd    OpKind = "node-add"
	OpNodeRemove OpKind = "node-remove"
	OpLinkAdd    OpKind = "link-add"
	OpLinkRemove OpKind = "link-remove"
)

// Op is one sequence-numbered desired-state operation. Seq totally orders
// the log; Term records which leadership term produced the op. Data is the
// opaque record the orchestrator replays on promotion — the cluster layer
// never interprets it.
type Op struct {
	Seq  uint64          `json:"seq"`
	Term uint64          `json:"term"`
	Kind OpKind          `json:"kind"`
	Key  string          `json:"key"`
	Data json.RawMessage `json:"data,omitempty"`
}

// category maps an op kind to the intent-store bucket it mutates and
// whether the op stores or deletes the record under its key.
func (k OpKind) category() (cat string, remove bool) {
	switch k {
	case OpDeploy, OpUpdate, OpScale:
		return "graphs", false
	case OpUndeploy:
		return "graphs", true
	case OpNodeAdd:
		return "nodes", false
	case OpNodeRemove:
		return "nodes", true
	case OpLinkAdd:
		return "links", false
	case OpLinkRemove:
		return "links", true
	default:
		return "", false
	}
}

// Snapshot is a full copy of the intent store at one sequence number, the
// catch-up payload for joiners that fell behind the leader's log window.
type Snapshot struct {
	Seq uint64 `json:"seq"`
	// Term is the leadership term of the op at Seq. Restoring a snapshot
	// adopts it, so election log-completeness comparisons rank this
	// replica's history correctly (see RequestVote).
	Term uint64 `json:"term,omitempty"`
	// Records is category → key → record (graphs, nodes, links).
	Records map[string]map[string]json.RawMessage `json:"records"`
}

// IntentStore is the replicated desired state: the fold of every applied
// op, keyed by category and key. Apply is idempotent by sequence number
// and tolerates reordered delivery by parking out-of-order ops until the
// gap fills, so the store converges to the same state on every replica
// regardless of duplication or reordering on the wire.
type IntentStore struct {
	mu          sync.Mutex
	lastApplied uint64
	lastTerm    uint64 // term of the op at lastApplied
	records     map[string]map[string]json.RawMessage
	pending     map[uint64]Op
}

// NewIntentStore builds an empty store.
func NewIntentStore() *IntentStore {
	return &IntentStore{
		records: make(map[string]map[string]json.RawMessage),
		pending: make(map[uint64]Op),
	}
}

// LastApplied is the highest contiguously-applied sequence number — the
// value acknowledged to the leader.
func (s *IntentStore) LastApplied() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.lastApplied
}

// LastTermSeq is the (term, seq) of the newest applied op — the pair
// elections compare so a replica whose history ends in an older term's
// uncommitted suffix cannot outrank one holding committed ops at the same
// sequence number.
func (s *IntentStore) LastTermSeq() (term, seq uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.lastTerm, s.lastApplied
}

// Apply folds one op into the store. Ops at or below lastApplied are
// duplicates and ignored; ops beyond lastApplied+1 are parked until the
// missing prefix arrives. Returns the new lastApplied.
func (s *IntentStore) Apply(op Op) uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.applyLocked(op)
	return s.lastApplied
}

func (s *IntentStore) applyLocked(op Op) {
	if op.Seq <= s.lastApplied {
		return // duplicate
	}
	if op.Seq > s.lastApplied+1 {
		s.pending[op.Seq] = op // reordered: park until the gap fills
		return
	}
	s.foldLocked(op)
	s.lastApplied = op.Seq
	s.lastTerm = op.Term
	// Drain any parked ops the new prefix unblocks.
	for {
		next, ok := s.pending[s.lastApplied+1]
		if !ok {
			return
		}
		delete(s.pending, next.Seq)
		s.foldLocked(next)
		s.lastApplied = next.Seq
		s.lastTerm = next.Term
	}
}

func (s *IntentStore) foldLocked(op Op) {
	cat, remove := op.Kind.category()
	if cat == "" {
		return
	}
	if remove {
		if m := s.records[cat]; m != nil {
			delete(m, op.Key)
			if len(m) == 0 {
				delete(s.records, cat)
			}
		}
		return
	}
	m := s.records[cat]
	if m == nil {
		m = make(map[string]json.RawMessage)
		s.records[cat] = m
	}
	// Copy: the caller's buffer may be reused (HTTP body, ring slot).
	m[op.Key] = append(json.RawMessage(nil), op.Data...)
}

// Snapshot copies the store at its current sequence number.
func (s *IntentStore) Snapshot() Snapshot {
	s.mu.Lock()
	defer s.mu.Unlock()
	snap := Snapshot{Seq: s.lastApplied, Term: s.lastTerm, Records: make(map[string]map[string]json.RawMessage, len(s.records))}
	for cat, m := range s.records {
		cm := make(map[string]json.RawMessage, len(m))
		for k, v := range m {
			cm[k] = append(json.RawMessage(nil), v...)
		}
		snap.Records[cat] = cm
	}
	return snap
}

// Restore replaces the store with a snapshot, discarding every parked op.
// Parked ops may predate the snapshot's leadership term and occupy
// sequence numbers the snapshotting leader assigns to different ops, so
// none of them can be trusted to share the snapshot's history; anything
// genuinely missing past the snapshot point is re-delivered by the
// leader's next append (its ops window starts at our acknowledgement).
func (s *IntentStore) Restore(snap Snapshot) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.records = make(map[string]map[string]json.RawMessage, len(snap.Records))
	for cat, m := range snap.Records {
		cm := make(map[string]json.RawMessage, len(m))
		for k, v := range m {
			cm[k] = append(json.RawMessage(nil), v...)
		}
		s.records[cat] = cm
	}
	s.lastApplied = snap.Seq
	s.lastTerm = snap.Term
	s.pending = make(map[uint64]Op)
}

// ClearPending discards parked out-of-order ops. Followers call it when
// adopting a new leader or term: an op parked while the previous leader
// was streaming may sit at a sequence number the new leader reuses for a
// different op, and folding it later would silently diverge this replica.
func (s *IntentStore) ClearPending() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.pending) != 0 {
		s.pending = make(map[uint64]Op)
	}
}

// Get returns the record under category/key, or nil.
func (s *IntentStore) Get(category, key string) json.RawMessage {
	s.mu.Lock()
	defer s.mu.Unlock()
	v := s.records[category][key]
	if v == nil {
		return nil
	}
	return append(json.RawMessage(nil), v...)
}

// Keys lists the keys in one category, sorted.
func (s *IntentStore) Keys(category string) []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	keys := make([]string, 0, len(s.records[category]))
	for k := range s.records[category] {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// Serialize renders the whole store as canonical JSON: Go's encoder sorts
// map keys, so two stores holding the same records serialize to identical
// bytes — the property the promotion-replay test asserts.
func (s *IntentStore) Serialize() []byte {
	s.mu.Lock()
	defer s.mu.Unlock()
	data, err := json.Marshal(struct {
		Seq     uint64                                `json:"seq"`
		Records map[string]map[string]json.RawMessage `json:"records"`
	}{s.lastApplied, s.records})
	if err != nil {
		// Records are json.RawMessage previously validated on ingest;
		// marshal cannot fail on them.
		panic(fmt.Sprintf("cluster: serialize intent store: %v", err))
	}
	return data
}

// Log is the leader-side replication window: the most recent ops kept in
// memory so lagging followers catch up incrementally. A follower whose ack
// point fell out of the window is reseeded with a full snapshot instead.
type Log struct {
	mu    sync.Mutex
	depth int
	ops   []Op // ascending seq, at most depth entries
	next  uint64
}

// NewLog builds a window holding the last depth ops.
func NewLog(depth int) *Log {
	if depth <= 0 {
		depth = 1024
	}
	return &Log{depth: depth, next: 1}
}

// Append assigns the next sequence number to the op, records it in the
// window and returns it.
func (l *Log) Append(term uint64, kind OpKind, key string, data json.RawMessage) Op {
	l.mu.Lock()
	defer l.mu.Unlock()
	op := Op{Seq: l.next, Term: term, Kind: kind, Key: key, Data: append(json.RawMessage(nil), data...)}
	l.next++
	l.ops = append(l.ops, op)
	if len(l.ops) > l.depth {
		l.ops = append(l.ops[:0], l.ops[len(l.ops)-l.depth:]...)
	}
	return op
}

// LastSeq is the sequence number of the newest op (0 when empty).
func (l *Log) LastSeq() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.next - 1
}

// Reset rebases the log after a promotion: the new leader starts its
// window empty just past the store's applied point.
func (l *Log) Reset(afterSeq uint64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.ops = nil
	l.next = afterSeq + 1
}

// Since returns the ops after seq, and ok=false when seq has fallen out of
// the window (the follower needs a snapshot).
func (l *Log) Since(seq uint64) (ops []Op, ok bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if seq >= l.next-1 {
		return nil, true // already current
	}
	if len(l.ops) == 0 || l.ops[0].Seq > seq+1 {
		return nil, false
	}
	idx := sort.Search(len(l.ops), func(i int) bool { return l.ops[i].Seq > seq })
	out := make([]Op, len(l.ops)-idx)
	copy(out, l.ops[idx:])
	return out, true
}
