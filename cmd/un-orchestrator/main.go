// Command un-orchestrator runs the NFV compute node daemon: it assembles a
// node (local orchestrator, compute drivers, NNF manager, image store,
// resource ledger) and serves the versioned NF-FG REST interface (/v1,
// with the legacy unversioned routes kept as deprecated aliases).
//
// Usage:
//
//	un-orchestrator [-listen :8080] [-name cpe] [-interfaces eth0,eth1]
//	                [-cpu 16000] [-ram-mb 8192] [-capabilities kvm,docker,...]
//	                [-policy first-fit|bin-pack|cost] [-workers 0]
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strings"

	un "repro"
)

func main() {
	var (
		listen       = flag.String("listen", ":8080", "REST listen address")
		name         = flag.String("name", "un-node", "node name")
		interfaces   = flag.String("interfaces", "eth0,eth1", "comma-separated physical interface names")
		cpu          = flag.Int("cpu", 16000, "CPU capacity in millicores")
		ramMB        = flag.Int("ram-mb", 8192, "RAM capacity in MiB")
		capabilities = flag.String("capabilities", "", "comma-separated capability set (empty = all)")
		policy       = flag.String("policy", "first-fit", "placement policy: first-fit, bin-pack or cost")
		workers      = flag.Int("workers", 0, "datapath workers per LSI (0 = the lane runs inline in the sender)")
	)
	flag.Parse()

	cfg := un.Config{
		Name:            *name,
		Interfaces:      splitList(*interfaces),
		CPUMillis:       *cpu,
		RAMBytes:        uint64(*ramMB) * un.MB,
		PlacementPolicy: *policy,
		Workers:         *workers,
	}
	if *capabilities != "" {
		cfg.Capabilities = splitList(*capabilities)
	}
	node, err := un.NewNode(cfg)
	if err != nil {
		log.Fatalf("un-orchestrator: %v", err)
	}
	defer node.Close()

	fmt.Fprintf(os.Stderr, "un-orchestrator: node %q up, interfaces %v, datapath workers %d\n", *name, cfg.Interfaces, *workers)
	fmt.Fprintf(os.Stderr, "un-orchestrator: REST listening on %s\n", *listen)
	fmt.Fprintf(os.Stderr, "un-orchestrator: telemetry on GET /metrics (Prometheus text) and GET /events\n")
	fmt.Fprintf(os.Stderr, "un-orchestrator: placement policy %q; NF hot-swap on POST /v1/graphs/{id}/nfs/{nf}/reflavor, replica resize on POST /v1/graphs/{id}/nfs/{nf}/scale\n", *policy)
	if err := node.ListenAndServe(*listen); err != nil {
		log.Fatalf("un-orchestrator: %v", err)
	}
}

func splitList(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if p := strings.TrimSpace(part); p != "" {
			out = append(out, p)
		}
	}
	return out
}
