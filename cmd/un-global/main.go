// Command un-global runs the global orchestrator daemon: one control plane
// over a fleet of Universal Nodes (each a cmd/un-orchestrator daemon).
// Nodes register over the REST interface (or with -node at startup), inter-
// node links are declared with POST /v1/links, and NF-FGs submitted with
// PUT /v1/graphs/{id} are partitioned across the fleet by the resource-
// aware placement scheduler. A reconcile loop probes node health and
// reschedules graphs off dead nodes. The legacy unversioned routes
// (/NF-FG, /nodes, ...) remain as deprecated aliases.
//
// With -id and -join flags the daemon runs as one replica of an HA
// cluster: a lease-based election picks the single leader that mutates
// placement and probes node health, and every desired-state change is
// replicated to the followers through a sequence-numbered intent log.
// Followers answer reads and redirect writes to the leader with 307;
// GET /v1/cluster reports the lease and replication state.
//
// Usage:
//
//	un-global [-listen :9090] [-probe 2s]
//	          [-node name=http://host:8080 ...]
//	          [-id r1 -cluster-id un -advertise http://host:9090
//	           -join r1=http://h1:9090 -join r2=http://h2:9090 ...]
//
// Example (standalone):
//
//	un-orchestrator -listen :8081 -name n1 -interfaces lan,trunk &
//	un-orchestrator -listen :8082 -name n2 -interfaces trunk,wan &
//	un-global -listen :9090 -node n1=http://127.0.0.1:8081 \
//	                        -node n2=http://127.0.0.1:8082
//	curl -X POST :9090/v1/links -d '{"a-node":"n1","a-if":"trunk",
//	                                 "b-node":"n2","b-if":"trunk"}'
//	curl -X PUT :9090/v1/graphs/svc -d @graph.json
//	curl :9090/v1/graphs/svc/placement
//
// Example (3-replica HA cluster, see examples/hacluster):
//
//	un-global -listen :9090 -id r1 -join r1=http://127.0.0.1:9090 \
//	          -join r2=http://127.0.0.1:9091 -join r3=http://127.0.0.1:9092 &
//	un-global -listen :9091 -id r2 -join ... &
//	un-global -listen :9092 -id r3 -join ... &
//	curl :9090/v1/cluster          # who leads, who is alive
package main

import (
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"strings"
	"time"

	"repro/internal/cluster"
	"repro/internal/global"
	"repro/internal/rest"
)

// nodeFlags collects repeated name=url flags (-node and -join).
type nodeFlags []struct{ name, url string }

func (n *nodeFlags) String() string { return fmt.Sprintf("%v", *n) }

func (n *nodeFlags) Set(v string) error {
	name, url, ok := strings.Cut(v, "=")
	if !ok || name == "" || url == "" {
		return fmt.Errorf("want name=url, got %q", v)
	}
	*n = append(*n, struct{ name, url string }{name, url})
	return nil
}

func main() {
	var nodes, joins nodeFlags
	var (
		listen   = flag.String("listen", ":9090", "REST listen address")
		probe    = flag.Duration("probe", 2*time.Second, "health-probe and reconcile interval")
		pressure = flag.Float64("pressure", global.DefaultPressureFreeCPUFraction,
			"free-CPU fraction under which the reconcile loop reflavors NFs in place (negative disables)")
		id        = flag.String("id", "", "replica id: run as one member of an HA cluster (requires -join)")
		clusterID = flag.String("cluster-id", "un", "cluster name replicas must agree on before voting or replicating")
		advertise = flag.String("advertise", "", "base URL peers and redirected clients reach this replica on (default http://127.0.0.1<listen>)")
		lease     = flag.Duration("lease", time.Second, "leader lease duration; failover takes roughly one lease plus one election round")
	)
	flag.Var(&nodes, "node", "pre-register a node as name=url (repeatable; in HA mode only the leader registers)")
	flag.Var(&joins, "join", "HA cluster peer as id=url (repeatable; listing this replica itself is optional)")
	flag.Parse()

	orch := global.New(global.Config{
		ProbeInterval:           *probe,
		PressureFreeCPUFraction: *pressure,
		Logf:                    log.Printf,
	})
	client := &http.Client{Timeout: 5 * time.Second}

	var clu *cluster.Cluster
	if *id != "" {
		selfAddr := *advertise
		if selfAddr == "" {
			host := *listen
			if strings.HasPrefix(host, ":") {
				host = "127.0.0.1" + host
			}
			selfAddr = "http://" + host
		}
		var peers []cluster.PeerSpec
		self := false
		for _, p := range joins {
			addr := p.url
			if p.name == *id {
				self = true
				if *advertise != "" {
					addr = *advertise
				}
			}
			peers = append(peers, cluster.PeerSpec{ID: p.name, Addr: addr})
		}
		if !self {
			peers = append(peers, cluster.PeerSpec{ID: *id, Addr: selfAddr})
		}
		if len(peers) < 2 {
			log.Fatalf("un-global: -id %q needs at least one -join peer", *id)
		}
		c, err := global.BuildHA(orch, cluster.Options{
			ID:            *id,
			ClusterID:     *clusterID,
			Peers:         peers,
			Transport:     cluster.NewHTTPTransport(peers, nil),
			LeaseDuration: *lease,
		}, nil)
		if err != nil {
			log.Fatalf("un-global: %v", err)
		}
		clu = c
	}

	if clu == nil {
		for _, n := range nodes {
			if err := orch.AddNode(global.NewHTTPNode(n.name, n.url, client)); err != nil {
				log.Fatalf("un-global: %v", err)
			}
			fmt.Fprintf(os.Stderr, "un-global: node %q registered at %s\n", n.name, n.url)
		}
	} else if len(nodes) > 0 {
		// Only the leader may mutate desired state; wait out the first
		// election, then register the -node fleet if the lease landed
		// here. On a follower the flags are informational — the leader
		// replica registers its own, and the intent replicates back.
		go func() {
			for {
				st := clu.ClusterStatus()
				if st.Leader == "" {
					time.Sleep(200 * time.Millisecond)
					continue
				}
				if !st.IsLeader {
					log.Printf("un-global: follower of %s: -node registrations left to the leader", st.Leader)
					return
				}
				for _, n := range nodes {
					if err := orch.AddNode(global.NewHTTPNode(n.name, n.url, client)); err != nil {
						log.Printf("un-global: registering node %q: %v", n.name, err)
						continue
					}
					log.Printf("un-global: node %q registered at %s", n.name, n.url)
				}
				return
			}
		}()
	}

	orch.Start()
	defer orch.Close()

	srv := rest.NewGlobal(orch, client)
	if clu != nil {
		srv.EnableCluster(clu)
		clu.Start()
		defer clu.Close()
		fmt.Fprintf(os.Stderr, "un-global: HA replica %q in cluster %q with %d peers (lease %v); membership on GET /v1/cluster\n",
			*id, *clusterID, len(joins), *lease)
	}

	fmt.Fprintf(os.Stderr, "un-global: REST listening on %s (probe every %v)\n", *listen, *probe)
	fmt.Fprintf(os.Stderr, "un-global: fleet telemetry on GET /metrics (per-node labels) and GET /events\n")
	fmt.Fprintf(os.Stderr, "un-global: NF hot-swap on POST /v1/graphs/{id}/nfs/{nf}/reflavor, replica resize on POST /v1/graphs/{id}/nfs/{nf}/scale (pressure relief at %.0f%% free CPU)\n", *pressure*100)
	if err := http.ListenAndServe(*listen, srv); err != nil {
		log.Fatalf("un-global: %v", err)
	}
}
