// Command nfbench owns the paper-fidelity question: it regenerates the
// paper's evaluation from the command line — Table 1 (IPsec throughput / RAM
// / image size across KVM, Docker and native execution) and the ablation
// experiments A1-A4 (README, "Paper evaluation: Table 1, ablations, cost
// model"). Modelled columns (virtual clock, cost model) are labelled as such;
// the wall ns/pkt and allocs/pkt printed beside them are measured in the same
// run on the machine at hand.
//
// Usage:
//
//	nfbench               # everything
//	nfbench -table 1      # Table 1 only
//	nfbench -ablations    # ablations only
//	nfbench -packets N    # traffic volume per measurement (default 2000)
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"repro/internal/bench"
)

func main() {
	var (
		table     = flag.Int("table", 0, "regenerate only this table (1)")
		ablations = flag.Bool("ablations", false, "run only the ablations")
		packets   = flag.Int("packets", 2000, "packets per throughput measurement")
	)
	flag.Parse()

	runTable1 := !*ablations
	runAblations := *table == 0
	if *table != 0 && *table != 1 {
		log.Fatalf("nfbench: the paper has only Table 1 (got -table %d)", *table)
	}

	if runTable1 {
		rows, err := bench.Table1(*packets)
		if err != nil {
			log.Fatalf("nfbench: %v", err)
		}
		fmt.Print(bench.FormatTable1(rows))
		fmt.Println()
	}
	if runAblations {
		if err := printAblations(*packets); err != nil {
			log.Fatalf("nfbench: %v", err)
		}
	}
}

func printAblations(packets int) error {
	fmt.Println("A1: sharable NNF (one native firewall vs per-tenant containers; MB and Mbps modelled;")
	fmt.Println("    KB retained and goroutines per tenant after the first measured)")
	fmt.Printf("%8s  %12s  %14s  %12s  %14s  %9s  %12s  %11s  %14s\n",
		"tenants", "shared MB", "exclusive MB", "shared Mbps", "exclusive Mbps",
		"shared KB", "exclusive KB", "shared gor.", "exclusive gor.")
	for _, tenants := range []int{2, 4, 8, 64} {
		res, err := bench.SharableNNF(tenants, packets)
		if err != nil {
			return err
		}
		fmt.Printf("%8d  %12.1f  %14.1f  %12.0f  %14.0f  %9.2f  %12.2f  %11.2f  %14.2f\n",
			res.Tenants, res.SharedRAMMB, res.ExclusiveRAMMB, res.SharedMbps, res.ExclusiveMbps,
			res.Shared.KB, res.Exclusive.KB, res.Shared.Goroutines, res.Exclusive.Goroutines)
	}
	fmt.Println()

	fmt.Println("A2: single-interface adaptation layer overhead (measured: wall clock, heap allocations)")
	ad, err := bench.AdaptationLayer(packets)
	if err != nil {
		return err
	}
	fmt.Printf("%12s  %8s  %10s  %9s\n", "", "ns/pkt", "allocs/pkt", "bytes/pkt")
	fmt.Printf("%12s  %8.0f  %10.2f  %9.0f\n", "direct", ad.DirectNsPerPkt, ad.DirectAllocsPerPkt, ad.DirectBytesPerPkt)
	fmt.Printf("%12s  %8.0f  %10.2f  %9.0f\n\n", "adapted", ad.AdaptedNsPerPkt, ad.AdaptedAllocsPerPkt, ad.AdaptedBytesPerPkt)

	fmt.Println("A3: packet path sweep, modelled Mbps (IPsec workload)")
	fmt.Printf("%8s  %8s  %8s  %8s  %8s\n", "frame B", "native", "docker", "vm", "dpdk")
	for _, row := range bench.PacketPathSweep([]int{64, 128, 256, 512, 1024, 1500}) {
		fmt.Printf("%8d  %8.0f  %8.0f  %8.0f  %8.0f\n",
			row.FrameSize, row.NativeMbps, row.DockerMbps, row.VMMbps, row.DPDKMbps)
	}
	fmt.Println()

	fmt.Println("A4: NF start latency per technology (modelled)")
	lat, err := bench.StartupLatencies()
	if err != nil {
		return err
	}
	for _, f := range bench.Table1Flavors {
		fmt.Printf("%12s  %v\n", f.Platform, lat[f.Tech])
	}

	// A5 lives in the test suite (scheduler placement matrix); point at it.
	fmt.Fprintln(os.Stderr, "\nA5 (scheduler placement matrix) runs as:"+
		" go test -run TestSchedulerPlacementMatrix ./internal/orchestrator/")
	return nil
}
