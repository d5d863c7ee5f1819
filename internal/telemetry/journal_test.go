package telemetry

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"
	"time"
	"unsafe"
)

// eagerRing is the journal as it was before it grew on use: the whole
// depth allocated up front, written round and round. It is the reference
// the growing journal must be indistinguishable from.
type eagerRing struct {
	buf  []Event
	next int
	n    int
	seq  uint64
}

func (r *eagerRing) record(ev Event) {
	r.seq++
	ev.Seq = r.seq
	r.buf[r.next] = ev
	r.next = (r.next + 1) % len(r.buf)
	if r.n < len(r.buf) {
		r.n++
	}
}

func (r *eagerRing) events() []Event {
	out := make([]Event, 0, r.n)
	start := (r.next - r.n + len(r.buf)) % len(r.buf)
	for i := 0; i < r.n; i++ {
		out = append(out, r.buf[(start+i)%len(r.buf)])
	}
	return out
}

// TestJournalMatchesEagerRing records random event counts into journals of
// random depths and checks, after every record, that the retained events
// (sequence numbers included), the total and the eviction order equal the
// eager reference ring's, and that the storage never outgrows the depth.
func TestJournalMatchesEagerRing(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	base := time.Unix(1_700_000_000, 0)
	for trial := 0; trial < 200; trial++ {
		depth := 1 + rng.Intn(300)
		if trial%10 == 0 {
			depth = DefaultJournalDepth
		}
		records := rng.Intn(3 * depth)
		j := NewJournal(depth)
		ref := &eagerRing{buf: make([]Event, depth)}
		for i := 0; i < records; i++ {
			ev := Event{Time: base.Add(time.Duration(i) * time.Millisecond), Type: EventFlowMod, Graph: fmt.Sprintf("g%d", i)}
			j.Record(ev)
			ref.record(ev)
			if c := cap(j.buf); c > depth {
				t.Fatalf("depth %d after %d records: ring capacity %d", depth, i+1, c)
			}
			// Compare around every growth step and the wrap, at the end,
			// and at random points between.
			n := i + 1
			if n&(n-1) != 0 && n != depth && n != depth+1 && n != records && rng.Intn(20) != 0 {
				continue
			}
			if got, want := j.Events(), ref.events(); !slices.Equal(got, want) {
				t.Fatalf("depth %d after %d records: events differ from the eager ring\n got %v\nwant %v", depth, i+1, got, want)
			}
			if j.Total() != ref.seq {
				t.Fatalf("depth %d after %d records: total %d, want %d", depth, i+1, j.Total(), ref.seq)
			}
		}
	}
}

// TestEmptyJournalHoldsNoStorage: a journal that has recorded nothing has
// allocated no event storage, whatever its depth.
func TestEmptyJournalHoldsNoStorage(t *testing.T) {
	for _, depth := range []int{0, 1, DefaultJournalDepth, 1 << 20} {
		j := NewJournal(depth)
		if cap(j.buf) != 0 {
			t.Errorf("NewJournal(%d) holds room for %d events before any is recorded", depth, cap(j.buf))
		}
		if evs := j.Events(); len(evs) != 0 || j.Total() != 0 {
			t.Errorf("NewJournal(%d): %d events, total %d, want none", depth, len(evs), j.Total())
		}
	}
}

// TestJournalConcurrentRecordAndRead records from several goroutines while
// others read, across the growth steps and the wrap; under -race it shows
// growth is as safe as the full ring. Every read is contiguous in sequence.
func TestJournalConcurrentRecordAndRead(t *testing.T) {
	const writers, perWriter, depth = 4, 300, 256
	j := NewJournal(depth)
	stop := make(chan struct{})
	var readers sync.WaitGroup
	for r := 0; r < 2; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				evs := j.Events()
				for i := 1; i < len(evs); i++ {
					if evs[i].Seq != evs[i-1].Seq+1 {
						t.Errorf("non-contiguous read: seq %d after %d", evs[i].Seq, evs[i-1].Seq)
						return
					}
				}
			}
		}()
	}
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				j.Recordf(EventDeploy, "n", "g", "")
			}
		}()
	}
	wg.Wait()
	close(stop)
	readers.Wait()
	evs := j.Events()
	if len(evs) != depth || j.Total() != writers*perWriter || evs[depth-1].Seq != writers*perWriter {
		t.Fatalf("retained %d (last seq %d), total %d; want %d, %d, %d",
			len(evs), evs[len(evs)-1].Seq, j.Total(), depth, writers*perWriter, writers*perWriter)
	}
}

// TestJournalSlotForms fills a ring past its depth with every slot form —
// free-form, Record with its own time, and the NF events rendered on read —
// and checks order, sequence numbers, instants, the total and every
// rendered Detail across the wrap. A slot stays within 96 bytes, the size
// of an Event before slots were compact.
func TestJournalSlotForms(t *testing.T) {
	if size := unsafe.Sizeof(entry{}); size > 96 {
		t.Fatalf("a journal slot is %d bytes, want at most 96", size)
	}
	states := []string{"pending", "starting", "running"}
	state := func(nf string, from, to uint8) string { return nf + ": " + states[from] + " -> " + states[to] }
	as := func(nf string, tech, standby uint8) string {
		return nf + " as " + []string{"vm", "native"}[tech] + []string{"", " (standby)"}[standby]
	}
	const depth, records = 8, 21
	j := NewJournal(depth)
	base := time.Date(2000, 1, 1, 0, 0, 0, 0, time.UTC)
	var want []Event
	for i := 0; i < records; i++ {
		nf, graph := fmt.Sprintf("nf%d", i), fmt.Sprintf("g%d", i)
		var ev Event
		switch i % 4 {
		case 0:
			ev = Event{Time: base.Add(time.Duration(i) * time.Second), Type: EventLeaderElected, Node: "r1", Detail: nf + " won"}
			j.Record(ev)
		case 1:
			ev = Event{Type: EventDeploy, Node: "n", Graph: graph, Detail: "2 NFs, 3 rules"}
			j.Recordf(ev.Type, ev.Node, ev.Graph, ev.Detail)
		case 2:
			ev = Event{Type: EventNFState, Node: "n", Graph: graph, Detail: nf + ": pending -> running"}
			j.RecordNF(ev.Type, ev.Node, ev.Graph, state, nf, 0, 2)
		case 3:
			ev = Event{Type: EventNFStart, Node: "n", Graph: graph, Detail: nf + " as native (standby)"}
			j.RecordNF(ev.Type, ev.Node, ev.Graph, as, nf, 1, 1)
		}
		ev.Seq = uint64(i + 1)
		want = append(want, ev)
	}
	got := j.Events()
	if j.Total() != records || len(got) != depth {
		t.Fatalf("total %d, %d retained; want %d, %d", j.Total(), len(got), records, depth)
	}
	for i, ev := range got {
		w := want[records-depth+i]
		if w.Time.IsZero() {
			w.Time = ev.Time // stamped when recorded
		}
		if ev.Seq != w.Seq || !ev.Time.Equal(w.Time) || ev.Type != w.Type || ev.Node != w.Node || ev.Graph != w.Graph || ev.Detail != w.Detail {
			t.Errorf("event %d = %+v, want %+v", i, ev, w)
		}
	}
}
