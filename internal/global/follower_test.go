package global_test

import (
	"encoding/json"
	"testing"

	un "repro"
	"repro/internal/cluster"
	"repro/internal/global"
	"repro/internal/nffg"
)

// countingSource counts what a follower reads of the intent store: every
// record it gets it decodes, and only a full replay lists keys.
type countingSource struct {
	*cluster.IntentStore
	gets, lists int
}

func (c *countingSource) Get(category, key string) json.RawMessage {
	c.gets++
	return c.IntentStore.Get(category, key)
}

func (c *countingSource) Keys(category string) []string {
	c.lists++
	return c.IntentStore.Keys(category)
}

// TestFollowerDecodesOnlyNewRecords drives a leader through node, link and
// graph ops recorded into a store, and refreshes a follower from that store
// after each step: the refresh decodes one record per op since the previous
// refresh (one per record, where two ops wrote the same one) and never lists
// the store, and it leaves the follower's view equal to a fresh full replay
// of the store. After a snapshot install the refresh is that replay.
func TestFollowerDecodesOnlyNewRecords(t *testing.T) {
	f := lineFleet(t, 8000)
	store := cluster.NewIntentStore()
	var seq uint64
	category := map[cluster.OpKind]string{
		cluster.OpDeploy: "graphs", cluster.OpUpdate: "graphs", cluster.OpScale: "graphs", cluster.OpUndeploy: "graphs",
		cluster.OpNodeAdd: "nodes", cluster.OpNodeRemove: "nodes", cluster.OpLinkAdd: "links", cluster.OpLinkRemove: "links",
	}
	written := map[string]bool{} // the records the ops since the last refresh wrote
	f.g.SetIntentRecorder(func(kind cluster.OpKind, key string, data json.RawMessage) (func() error, error) {
		seq++
		store.Apply(cluster.Op{Seq: seq, Kind: kind, Key: key, Data: data})
		written[category[kind]+"/"+key] = true
		return nil, nil
	})
	handles := map[string]global.Node{}
	for name, ln := range f.locals {
		handles[name] = ln
	}
	resolver := func(name string, _ json.RawMessage) (global.Node, error) { return handles[name], nil }
	follower := global.New(global.Config{Logf: t.Logf})
	follower.SetNodeResolver(resolver)
	follower.SetLeaderGate(func() bool { return false })
	src := &countingSource{IntentStore: store}
	follower.SetIntentSource(src)

	var last uint64
	check := func(step string, incremental bool) {
		t.Helper()
		src.gets, src.lists = 0, 0
		follower.ReconcileOnce()
		ops := store.LastApplied() - last
		last = store.LastApplied()
		if incremental && (src.lists != 0 || src.gets != len(written)) {
			t.Errorf("%s: the refresh decoded %d records and listed %d categories after %d ops writing %d records, want %d and 0",
				step, src.gets, src.lists, ops, len(written), len(written))
		}
		clear(written)
		if !incremental && src.lists == 0 {
			t.Errorf("%s: the refresh did not replay the store", step)
		}
		fresh := global.New(global.Config{Logf: t.Logf})
		fresh.SetNodeResolver(resolver)
		if err := fresh.RestoreIntent(store); err != nil {
			t.Fatal(err)
		}
		if got, want := global.FollowerView(follower), global.FollowerView(fresh); got != want {
			t.Errorf("%s: the follower's view differs from a full replay:\n%s\nwant:\n%s", step, got, want)
		}
	}
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}

	// The fleet was registered before the recorder was installed: record
	// its nodes and links again.
	for _, name := range []string{"n1", "n2", "n3"} {
		must(f.g.RemoveNode(name))
		must(f.g.AddNode(f.locals[name]))
	}
	check("nodes", true)
	must(f.g.Unlink("n1", "x12", "n2", "x12"))
	must(f.g.Unlink("n2", "x23", "n3", "x23"))
	must(f.g.Link("n2", "x23", "n3", "x23"))
	must(f.g.Link("n1", "x12", "n2", "x12"))
	check("links", true)
	must(f.g.Deploy(chainGraph("big", 6)))
	small := chainGraph("small", 1)
	small.NFs[0].TechnologyPreference = nffg.TechDocker // scalable
	must(f.g.Deploy(small))
	check("deploys", true)
	must(f.g.Update(chainGraph("big", 4)))
	must(f.g.Scale("small", "nf0", 2))
	check("update and scale", true)
	must(f.g.Undeploy("small"))
	check("undeploy", true)

	n4, err := un.NewNode(un.Config{Name: "n4", Interfaces: []string{"lan"}, CPUMillis: 8000, RAMBytes: 1 << 30, Capabilities: chainCaps})
	must(err)
	t.Cleanup(n4.Close)
	handles["n4"] = global.NewLocalNode("n4", n4)
	must(f.g.AddNode(handles["n4"]))
	check("node add", true)
	must(f.g.RemoveNode("n4"))
	must(f.g.Deploy(chainGraph("small", 2)))
	check("node remove and redeploy", true)

	store.Restore(store.Snapshot())
	must(f.g.Undeploy("small"))
	check("snapshot install", false)
	must(f.g.Undeploy("big"))
	check("after the replay", true)
}
