// Package bench builds the paper's evaluation artifacts from the live
// system: Table 1 (IPsec throughput / RAM / image size per execution
// flavor) and the ablation experiments A1-A4 (README, "Paper evaluation:
// Table 1, ablations, cost model"). The nfbench command prints them; this
// package's tests hold their shape.
package bench

import (
	"fmt"
	"strings"

	un "repro"
	"repro/internal/measure"
)

// Table1Row is one platform row of the paper's Table 1.
type Table1Row struct {
	Platform string
	// Mbps is the modelled iPerf throughput (Mbps-sim: delivered bytes over
	// the virtual clock the flavors' cost model charges).
	Mbps float64
	// RAMMB is the runtime RAM of the NF instance.
	RAMMB float64
	// ImageMB is the on-disk artifact size.
	ImageMB float64
	// NsPerPkt and AllocsPerPkt are measured in the same run: wall time and
	// heap allocations of this Go process per frame, blank in PaperTable1.
	NsPerPkt, AllocsPerPkt float64
}

// Table1Flavors are the platforms of Table 1, in paper order.
var Table1Flavors = []struct {
	Platform string
	Tech     un.Technology
	Image    string
}{
	{"KVM/QEMU", un.TechVM, "ipsec:vm"},
	{"Docker", un.TechDocker, "ipsec:docker"},
	{"Native NF", un.TechNative, "ipsec:native"},
}

// PaperTable1 holds the published numbers for side-by-side reporting.
var PaperTable1 = map[string]Table1Row{
	"KVM/QEMU":  {Platform: "KVM/QEMU", Mbps: 796, RAMMB: 390.6, ImageMB: 522},
	"Docker":    {Platform: "Docker", Mbps: 1095, RAMMB: 24.2, ImageMB: 240},
	"Native NF": {Platform: "Native NF", Mbps: 1094, RAMMB: 19.4, ImageMB: 5},
}

func ipsecConfig() map[string]string {
	return map[string]string{
		"local":  "192.0.2.1",
		"remote": "203.0.113.9",
		"spi":    "4096",
		"key":    "000102030405060708090a0b0c0d0e0f10111213",
	}
}

// IPsecGraph returns the Table 1 service graph: an IPsec endpoint between
// the node's LAN (eth0) and WAN (eth1) interfaces.
func IPsecGraph(id string, tech un.Technology) *un.Graph {
	return &un.Graph{
		ID: id,
		NFs: []un.NF{{
			ID: "vpn", Name: "ipsec",
			Ports:                []un.NFPort{{ID: "0"}, {ID: "1"}},
			TechnologyPreference: tech,
			Config:               ipsecConfig(),
		}},
		Endpoints: []un.Endpoint{
			{ID: "lan", Type: un.EPInterface, Interface: "eth0"},
			{ID: "wan", Type: un.EPInterface, Interface: "eth1"},
		},
		Rules: []un.FlowRule{
			{ID: "r1", Priority: 10, Match: un.RuleMatch{PortIn: un.EndpointRef("lan")},
				Actions: []un.RuleAction{{Type: un.ActOutput, Output: un.NFPortRef("vpn", "0")}}},
			{ID: "r2", Priority: 10, Match: un.RuleMatch{PortIn: un.NFPortRef("vpn", "1")},
				Actions: []un.RuleAction{{Type: un.ActOutput, Output: un.EndpointRef("wan")}}},
			{ID: "r3", Priority: 10, Match: un.RuleMatch{PortIn: un.EndpointRef("wan")},
				Actions: []un.RuleAction{{Type: un.ActOutput, Output: un.NFPortRef("vpn", "1")}}},
			{ID: "r4", Priority: 10, Match: un.RuleMatch{PortIn: un.NFPortRef("vpn", "0")},
				Actions: []un.RuleAction{{Type: un.ActOutput, Output: un.EndpointRef("lan")}}},
		},
	}
}

// measureFlavor deploys the IPsec graph in one flavor on a fresh node and
// measures it with the iPerf stand-in (packets MTU-sized frames, LAN to WAN:
// the ESP-encapsulation direction of the paper's setup).
func measureFlavor(tech un.Technology, image string, packets int) (Table1Row, error) {
	node, err := un.NewNode(un.Config{Name: "bench-" + string(tech)})
	if err != nil {
		return Table1Row{}, err
	}
	defer node.Close()
	g := IPsecGraph("t1", tech)
	if err := node.Deploy(g); err != nil {
		return Table1Row{}, err
	}
	lan, _ := node.InterfacePort("eth0")
	wan, _ := node.InterfacePort("eth1")
	rep, err := measure.Run(lan, wan, node.Clock(), measure.Spec{Packets: packets, FrameSize: 1500})
	if err != nil {
		return Table1Row{}, err
	}
	if rep.LossRate() > 0 {
		return Table1Row{}, fmt.Errorf("bench: %v lost %.1f%% of traffic", tech, rep.LossRate()*100)
	}
	ram, ok := node.InstanceRAM("t1", "vpn")
	if !ok {
		return Table1Row{}, fmt.Errorf("bench: instance RAM unavailable")
	}
	img, err := node.ImageDiskSize(image)
	if err != nil {
		return Table1Row{}, err
	}
	return Table1Row{
		Mbps:         rep.MbpsGoodput(),
		RAMMB:        float64(ram) / un.MB,
		ImageMB:      float64(img) / un.MB,
		NsPerPkt:     rep.NsPerPacket(),
		AllocsPerPkt: rep.AllocsPerPacket(),
	}, nil
}

// Table1 regenerates the full table.
func Table1(packets int) ([]Table1Row, error) {
	rows := make([]Table1Row, 0, len(Table1Flavors))
	for _, f := range Table1Flavors {
		row, err := measureFlavor(f.Tech, f.Image, packets)
		if err != nil {
			return nil, fmt.Errorf("bench: %s: %w", f.Platform, err)
		}
		row.Platform = f.Platform
		rows = append(rows, row)
	}
	return rows, nil
}

// FormatTable1 renders the reproduced rows next to the paper's numbers. The
// first three columns come from the cost model (virtual clock, reservations,
// image store) and are what Table 1 is compared against; the last two are
// measured on the machine running this process and say nothing about the
// paper's testbed.
func FormatTable1(rows []Table1Row) string {
	var b strings.Builder
	b.WriteString("Table 1: Results with IPSec client VNFs\n")
	fmt.Fprintf(&b, "%-10s  %-54s | %s\n", "", "modelled: reproduced vs paper", "measured: this Go process")
	fmt.Fprintf(&b, "%-10s  %19s  %15s  %16s | %11s  %10s\n", "Platform",
		"Through. (Mbps-sim)", "RAM (MB)", "Image size (MB)", "wall ns/pkt", "allocs/pkt")
	for _, r := range rows {
		p := PaperTable1[r.Platform]
		fmt.Fprintf(&b, "%-10s  %10.0f vs %5.0f  %6.1f vs %5.1f  %7.0f vs %5.0f | %11.0f  %10.1f\n",
			r.Platform, r.Mbps, p.Mbps, r.RAMMB, p.RAMMB, r.ImageMB, p.ImageMB, r.NsPerPkt, r.AllocsPerPkt)
	}
	return b.String()
}
