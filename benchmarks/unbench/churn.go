package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"time"

	un "repro"
	"repro/internal/cluster"
	"repro/internal/global"
	"repro/internal/netdev"
	"repro/internal/pkt"
	"repro/internal/rest"
)

const (
	churnReplicas = 3
	churnNodeCPU  = 250 // mCPU per node: the 6-NF chain cannot fit on one
)

var fleetCaps = []string{"docker", "nnf:firewall", "nnf:monitor", "nnf:bridge"}

// fleet is the 3-node line lan@n1 - n2 - n3@wan with patched trunks.
type fleet struct {
	names    []string
	nodes    map[string]*un.Node
	lan, wan *netdev.Port
	unpatch  []func()
}

// trunks lists the inter-node cables of the line fleet.
var trunks = []struct{ a, b, iface string }{{"n1", "n2", "x12"}, {"n2", "n3", "x23"}}

func newFleet() (*fleet, error) {
	f := &fleet{names: []string{"n1", "n2", "n3"}, nodes: map[string]*un.Node{}}
	ifaces := map[string][]string{"n1": {"lan", "x12"}, "n2": {"x12", "x23"}, "n3": {"x23", "wan"}}
	for _, name := range f.names {
		n, err := un.NewNode(un.Config{
			Name: name, Interfaces: ifaces[name],
			CPUMillis: churnNodeCPU, RAMBytes: 1 << 30, Capabilities: fleetCaps,
		})
		if err != nil {
			f.close()
			return nil, err
		}
		f.nodes[name] = n
	}
	for _, t := range trunks {
		pa, _ := f.nodes[t.a].InterfacePort(t.iface)
		pb, _ := f.nodes[t.b].InterfacePort(t.iface)
		f.unpatch = append(f.unpatch, global.Patch(pa, pb))
	}
	f.lan, _ = f.nodes["n1"].InterfacePort("lan")
	f.wan, _ = f.nodes["n3"].InterfacePort("wan")
	return f, nil
}

// register adds the fleet's nodes (through wrap, when set) and trunks to o.
func (f *fleet) register(o *global.Orchestrator, handle func(name string) global.Node) error {
	for _, name := range f.names {
		if err := o.AddNode(handle(name)); err != nil {
			return err
		}
	}
	for _, t := range trunks {
		if err := o.Link(t.a, t.iface, t.b, t.iface); err != nil {
			return err
		}
	}
	return nil
}

func (f *fleet) close() {
	for _, u := range f.unpatch {
		u()
	}
	for _, n := range f.nodes {
		n.Close()
	}
}

// churn drives deploy-churn: three un-global replicas over an in-process
// cluster fabric managing the line fleet, one REST client, closed loop. The
// leader's handler is called in process (ServeHTTP on an httptest recorder):
// no socket is crossed.
type churn struct {
	in    *churnInputs
	fleet *fleet
	orchs []*global.Orchestrator
	clus  []*cluster.Cluster
	lead  int
	srv   http.Handler
	tr    *tracer // nil when untraced

	probed int // frames seen at wan by the current probe

	// probeCache makes every probe bracket itself with the fleet's cache
	// counters (the graph's LSIs exist only between create and delete, so
	// the counters cannot be differenced across lifecycles).
	probeCache   bool
	probeStats   un.CacheStats
	probedFrames uint64

	// afterCreate, when set, runs between the create request and the probe
	// (the traced pass replays the request's layers there).
	afterCreate func()

	attempted, failedOps uint64
	lat                  hist
}

// setupChurn builds the control plane the way cmd/un-global does (global.New
// + BuildHA + rest.NewGlobal + EnableCluster, default cluster timers), waits
// for the first election and registers the fleet on the leader. With a
// tracer, node handles and the cluster transport are wrapped so node RPCs
// and replication RPCs become spans.
func setupChurn(in *churnInputs, tr *tracer) (*churn, error) {
	c := &churn{in: in, tr: tr}
	var err error
	if c.fleet, err = newFleet(); err != nil {
		return nil, err
	}
	handles := map[string]global.Node{}
	for name, n := range c.fleet.nodes {
		var h global.Node = global.NewLocalNode(name, n)
		if tr != nil {
			h = &tracedNode{Node: h, tr: tr}
		}
		handles[name] = h
	}
	resolver := func(name string, _ json.RawMessage) (global.Node, error) {
		h, ok := handles[name]
		if !ok {
			return nil, fmt.Errorf("deploy-churn: unknown node %q", name)
		}
		return h, nil
	}
	fabric := cluster.NewLocalNetwork()
	var peers []cluster.PeerSpec
	for i := 1; i <= churnReplicas; i++ {
		id := fmt.Sprintf("r%d", i)
		peers = append(peers, cluster.PeerSpec{ID: id, Addr: "http://" + id})
	}
	var servers []*rest.GlobalServer
	for _, p := range peers {
		o := global.New(global.Config{})
		var transport cluster.Transport = fabric.Transport(p.ID)
		if tr != nil {
			transport = &tracedTransport{Transport: transport, tr: tr}
		}
		cl, err := global.BuildHA(o, cluster.Options{
			ID: p.ID, ClusterID: "unbench", Peers: peers, Transport: transport,
		}, resolver)
		if err != nil {
			c.close()
			return nil, err
		}
		fabric.Register(p.ID, cl)
		srv := rest.NewGlobal(o, nil)
		srv.EnableCluster(cl)
		c.orchs, c.clus, servers = append(c.orchs, o), append(c.clus, cl), append(servers, srv)
	}
	for i := range c.clus {
		c.orchs[i].Start()
		c.clus[i].Start()
	}
	c.lead = -1
	for deadline := time.Now().Add(30 * time.Second); c.lead < 0; {
		for i, cl := range c.clus {
			if cl.IsLeader() {
				c.lead = i
			}
		}
		if c.lead < 0 {
			if time.Now().After(deadline) {
				c.close()
				return nil, fmt.Errorf("deploy-churn: no leader elected in 30s")
			}
			time.Sleep(time.Millisecond)
		}
	}
	c.srv = servers[c.lead]
	if err := c.fleet.register(c.orchs[c.lead], func(n string) global.Node { return handles[n] }); err != nil {
		c.close()
		return nil, err
	}
	c.fleet.wan.SetHandler(func(f netdev.Frame) {
		c.probed++
		pkt.PutBuffer(f.Data)
	})
	// Warm-up: lazily built state (routes, pools, first replication round)
	// settles before the first measured op.
	for i := 0; i < 20; i++ {
		if _, ok := c.lifecycle(); !ok {
			c.close()
			return nil, fmt.Errorf("deploy-churn: warm-up lifecycle %d failed", i)
		}
	}
	c.attempted, c.failedOps = 0, 0
	return c, nil
}

func (c *churn) close() {
	if c.fleet != nil {
		c.fleet.wan.SetHandler(nil)
	}
	for i := range c.clus {
		c.orchs[i].Close()
		c.clus[i].Close()
	}
	if c.fleet != nil {
		c.fleet.close()
	}
}

// request sends one REST request to the leader's handler; with a tracer it
// is the root span of its own trace (kind names it).
func (c *churn) request(kind, method, path string, body []byte) (int, *bytes.Buffer) {
	req := httptest.NewRequest(method, path, bytes.NewReader(body))
	rec := httptest.NewRecorder()
	if c.tr != nil {
		end := c.tr.root(kind)
		c.srv.ServeHTTP(rec, req)
		end()
	} else {
		c.srv.ServeHTTP(rec, req)
	}
	return rec.Code, rec.Body
}

const graphPath = "/v1/graphs/" + churnGraphID

// lifecycle is one op: create, probe, two reads, update, delete. It returns
// the create request's latency; ok is false when any request answers
// non-2xx, the probe loses a frame or the placement spans fewer than two
// nodes.
func (c *churn) lifecycle() (createNs int64, ok bool) {
	c.attempted++
	ok = true
	t0 := nanotime()
	code, _ := c.request("rest.create", http.MethodPut, graphPath, c.in.createBody)
	createNs = nanotime() - t0
	ok = ok && code/100 == 2
	if c.afterCreate != nil {
		c.afterCreate()
	}

	c.probed = 0
	var before un.CacheStats
	if c.probeCache {
		before = c.cacheStats()
	}
	for _, f := range c.in.probe {
		_ = c.fleet.lan.Send(netdev.Frame{Data: f})
	}
	if c.probeCache {
		after := c.cacheStats()
		c.probeStats.Hits += after.Hits - before.Hits
		c.probeStats.Misses += after.Misses - before.Misses
		c.probeStats.Entries = after.Entries
		c.probedFrames += uint64(len(c.in.probe))
	}
	ok = ok && c.probed == len(c.in.probe)

	code, _ = c.request("rest.get", http.MethodGet, graphPath, nil)
	ok = ok && code/100 == 2

	code, body := c.request("rest.placement", http.MethodGet, graphPath+"/placement", nil)
	var pl rest.PlacementReply
	spans := map[string]bool{}
	if code/100 == 2 && json.Unmarshal(body.Bytes(), &pl) == nil {
		for _, node := range pl.NFs {
			spans[node] = true
		}
	}
	ok = ok && len(spans) >= 2

	code, _ = c.request("rest.update", http.MethodPut, graphPath, c.in.updateBody)
	ok = ok && code/100 == 2
	code, _ = c.request("rest.delete", http.MethodDelete, graphPath, nil)
	ok = ok && code/100 == 2
	if !ok {
		c.failedOps++
	}
	return createNs, ok
}

// window runs lifecycles back to back for dur. Throughput, allocation and
// create latency all come from the same ops: there is no burst mode for a
// client that waits for its reply.
func (c *churn) window(dur time.Duration) window {
	var w window
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	c.lat.reset()
	start := nanotime()
	end := start
	for end-start < int64(dur) {
		ns, ok := c.lifecycle()
		end = nanotime()
		if ok {
			w.ops++
			c.lat.add(ns)
		}
	}
	runtime.ReadMemStats(&m1)
	if w.ops > 0 {
		w.opsPerS = float64(w.ops) / (float64(end-start) / 1e9)
		w.allocsPerOp = float64(m1.Mallocs-m0.Mallocs) / float64(w.ops)
		w.allocKBPerOp = float64(m1.TotalAlloc-m0.TotalAlloc) / 1024 / float64(w.ops)
	}
	w.samples = int(c.lat.n)
	w.p50us = c.lat.percentile(0.50) / 1e3
	w.p90us = c.lat.percentile(0.90) / 1e3
	return w
}

func (c *churn) counts() (attempted, failed uint64) { return c.attempted, c.failedOps }

func (c *churn) cacheStats() un.CacheStats {
	var agg un.CacheStats
	for _, n := range c.fleet.nodes {
		cs := n.DatapathCacheStats()
		agg.Hits += cs.Hits
		agg.Misses += cs.Misses
		agg.Entries += cs.Entries
	}
	return agg
}
