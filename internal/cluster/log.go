package cluster

import (
	"cmp"
	"encoding/json"
	"slices"
	"sort"
	"strings"
	"sync"

	"repro/internal/jsonw"
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

// snapshotSchema is the snapshot's wire form in an append request
// (wire.go). Its records are read as sub-slices of the request buffer, as
// op Data is; IntentStore.Restore copies them at that boundary.
var snapshotSchema = []jsonw.Field[Snapshot]{
	{Key: "seq", At: func(s *Snapshot) any { return &s.Seq }},
	{Key: "term", Omit: true, At: func(s *Snapshot) any { return &s.Term }},
	{Key: "records", Read: func(r *jsonw.Reader, s *Snapshot) { s.Records = jsonw.ReadMap(r, readCategory) },
		Write: func(w *jsonw.Writer, s *Snapshot) { jsonw.WriteMap(w, s.Records, writeCategory) }},
}

func readCategory(r *jsonw.Reader) map[string]json.RawMessage {
	return jsonw.ReadMap(r, func(r *jsonw.Reader) json.RawMessage { return r.Raw() })
}

func writeCategory(w *jsonw.Writer, records map[string]json.RawMessage) {
	jsonw.WriteMap(w, records, func(w *jsonw.Writer, rec json.RawMessage) {
		if len(rec) == 0 {
			w.Raw("null")
			return
		}
		w.Verbatim(rec)
	})
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

	// written maps category → key → the sequence number of the op that
	// last wrote or removed the record, so a reader that last saw the store
	// at a sequence from servesFrom on re-reads only the records written
	// since (ChangedSince). A removed record's entry stays as a tombstone;
	// once there are more than maxTombstones of them they are all dropped
	// and only readers at the current sequence are served. A Restore
	// empties it and serves only readers that saw the store after it.
	written       map[string]map[string]uint64
	tombstones    int
	maxTombstones int
	servesFrom    uint64
}

// Change names a record: a reader re-reads it with Get.
type Change struct {
	Category, Key string
}

// defaultLogDepth is the default of Options.LogDepth: how many ops the
// leader's log keeps, and how many removed records every store remembers.
const defaultLogDepth = 1024

// NewIntentStore builds an empty store that remembers up to 1024 removed
// records for ChangedSince.
func NewIntentStore() *IntentStore { return newIntentStore(defaultLogDepth) }

func newIntentStore(maxTombstones int) *IntentStore {
	return &IntentStore{
		records:       make(map[string]map[string]json.RawMessage),
		pending:       make(map[uint64]Op),
		written:       make(map[string]map[string]uint64),
		maxTombstones: maxTombstones,
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
	// Drain any parked ops the new prefix unblocks.
	for {
		next, ok := s.pending[s.lastApplied+1]
		if !ok {
			return
		}
		delete(s.pending, next.Seq)
		s.foldLocked(next)
	}
}

// foldLocked applies the op at lastApplied+1 and notes which record it
// wrote or removed.
func (s *IntentStore) foldLocked(op Op) {
	s.lastApplied = op.Seq
	s.lastTerm = op.Term
	cat, remove := op.Kind.category()
	if cat == "" {
		return
	}
	m := s.records[cat]
	_, live := m[op.Key]
	switch {
	case remove && m != nil:
		delete(m, op.Key)
		if len(m) == 0 {
			delete(s.records, cat)
		}
	case !remove:
		if m == nil {
			m = make(map[string]json.RawMessage)
			s.records[cat] = m
		}
		// Shared, not copied: a proposed record is immutable (see
		// Propose), so the store keeps the bytes the log holds. Get,
		// Snapshot and Restore copy at the boundary.
		m[op.Key] = op.Data
	}
	s.noteWrittenLocked(cat, op.Key, remove, live)
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
	s.written = make(map[string]map[string]uint64)
	s.tombstones = 0
	s.servesFrom = snap.Seq + 1
}

// noteWrittenLocked records that the op at lastApplied wrote or removed the
// record cat/key, which was live before it or not.
func (s *IntentStore) noteWrittenLocked(cat, key string, remove, wasLive bool) {
	w := s.written[cat]
	if w == nil {
		w = make(map[string]uint64)
		s.written[cat] = w
	}
	_, noted := w[key]
	w[key] = s.lastApplied
	switch {
	case remove && (wasLive || !noted):
		s.tombstones++
	case !remove && noted && !wasLive:
		s.tombstones--
	}
	if s.tombstones <= s.maxTombstones {
		return
	}
	for c, w := range s.written {
		for k := range w {
			if _, live := s.records[c][k]; !live {
				delete(w, k)
			}
		}
	}
	s.tombstones = 0
	s.servesFrom = s.lastApplied
}

// ChangedSince returns every record the ops applied after seq wrote or
// removed, each once, sorted, and the sequence number they run to: what a
// reader that last saw the store at seq must re-read. ok is false when the
// store cannot say, because it has since dropped its tombstones or a
// Restore replaced it, and the reader must re-read every record. A reader
// at the store's sequence has nothing to re-read.
func (s *IntentStore) ChangedSince(seq uint64) (changes []Change, through uint64, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if seq == s.lastApplied {
		return nil, seq, true
	}
	if seq < s.servesFrom || seq > s.lastApplied {
		return nil, s.lastApplied, false
	}
	for cat, w := range s.written {
		for key, at := range w {
			if at > seq {
				changes = append(changes, Change{Category: cat, Key: key})
			}
		}
	}
	slices.SortFunc(changes, func(a, b Change) int {
		return cmp.Or(strings.Compare(a.Category, b.Category), strings.Compare(a.Key, b.Key))
	})
	return changes, s.lastApplied, true
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

// Serialize renders the whole store as canonical JSON, the wire form of a
// snapshot of it without a term: map keys are sorted, so two stores holding
// the same records serialize to identical bytes — the property the
// promotion-replay test asserts. Nothing in a snapshot fails to encode.
func (s *IntentStore) Serialize() []byte {
	s.mu.Lock()
	defer s.mu.Unlock()
	data, _ := jsonw.Encode(snapshotSchema, &Snapshot{Seq: s.lastApplied, Records: s.records})
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
		depth = defaultLogDepth
	}
	return &Log{depth: depth, next: 1}
}

// Append assigns the next sequence number to the op, records it in the
// window and returns it. The op keeps data itself, not a copy: the caller
// hands over ownership and must not modify it afterwards.
func (l *Log) Append(term uint64, kind OpKind, key string, data json.RawMessage) Op {
	l.mu.Lock()
	defer l.mu.Unlock()
	op := Op{Seq: l.next, Term: term, Kind: kind, Key: key, Data: data}
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
