package bench

import (
	"fmt"
	"math"
	"strings"
	"testing"

	un "repro"
)

func TestTable1ShapeHolds(t *testing.T) {
	rows, err := Table1(400)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	byName := map[string]Table1Row{}
	for _, r := range rows {
		byName[r.Platform] = r
	}
	vm, docker, native := byName["KVM/QEMU"], byName["Docker"], byName["Native NF"]

	// Throughput shape: VM slowest, docker ≈ native, ratio ≈ 1.37.
	if !(vm.Mbps < docker.Mbps && vm.Mbps < native.Mbps) {
		t.Errorf("VM (%.0f) must be slowest (docker %.0f, native %.0f)", vm.Mbps, docker.Mbps, native.Mbps)
	}
	if r := native.Mbps / vm.Mbps; r < 1.2 || r > 1.6 {
		t.Errorf("native/vm = %.2f, want ~1.37", r)
	}
	if d := docker.Mbps / native.Mbps; d < 0.95 || d > 1.05 {
		t.Errorf("docker/native = %.2f, want ~1.0", d)
	}
	// RAM shape.
	if !(native.RAMMB < docker.RAMMB && docker.RAMMB < vm.RAMMB) {
		t.Errorf("RAM ordering broken: %v / %v / %v", vm.RAMMB, docker.RAMMB, native.RAMMB)
	}
	if vm.RAMMB/native.RAMMB < 15 {
		t.Errorf("vm/native RAM = %.1f, want ≥15 (paper 20.1)", vm.RAMMB/native.RAMMB)
	}
	// Image shape (exact by construction).
	if vm.ImageMB != 522 || docker.ImageMB != 240 || native.ImageMB != 5 {
		t.Errorf("image sizes = %v/%v/%v", vm.ImageMB, docker.ImageMB, native.ImageMB)
	}
	// Absolute values within 5% of the paper.
	for _, r := range rows {
		p := PaperTable1[r.Platform]
		if diff := (r.Mbps - p.Mbps) / p.Mbps; diff < -0.05 || diff > 0.05 {
			t.Errorf("%s throughput %.0f deviates >5%% from paper %.0f", r.Platform, r.Mbps, p.Mbps)
		}
		if diff := (r.RAMMB - p.RAMMB) / p.RAMMB; diff < -0.05 || diff > 0.05 {
			t.Errorf("%s RAM %.1f deviates >5%% from paper %.1f", r.Platform, r.RAMMB, p.RAMMB)
		}
	}
	// The modelled columns exactly as nfbench prints them: the calibrated
	// model is deterministic, so any drift is a change to the model or to
	// where packets are processed.
	for _, w := range []struct {
		row              Table1Row
		mbps, ram, image string
	}{
		{vm, "796", "390.7", "522"},
		{docker, "1090", "24.2", "240"},
		{native, "1094", "19.4", "5"},
	} {
		r := w.row
		if got := fmt.Sprintf("%.0f / %.1f / %.0f", r.Mbps, r.RAMMB, r.ImageMB); got != w.mbps+" / "+w.ram+" / "+w.image {
			t.Errorf("%s Mbps-sim / RAM / image = %s, want %s / %s / %s", r.Platform, got, w.mbps, w.ram, w.image)
		}
	}
	out := FormatTable1(rows)
	for _, want := range []string{"KVM/QEMU", "Docker", "Native NF", "Through", "RAM", "Image"} {
		if !strings.Contains(out, want) {
			t.Errorf("formatted table missing %q:\n%s", want, out)
		}
	}
	t.Logf("\n%s", out)
}

func TestSharableNNFAblation(t *testing.T) {
	res, err := SharableNNF(4, 200)
	if err != nil {
		t.Fatal(err)
	}
	// One shared instance must use far less memory than four containers.
	if res.SharedRAMMB >= res.ExclusiveRAMMB/2 {
		t.Errorf("shared %.1f MB vs exclusive %.1f MB: sharing saves too little",
			res.SharedRAMMB, res.ExclusiveRAMMB)
	}
	// And throughput must stay in the same ballpark (marking is cheap).
	if res.SharedMbps < res.ExclusiveMbps*0.8 {
		t.Errorf("shared throughput %.0f collapsed vs exclusive %.0f",
			res.SharedMbps, res.ExclusiveMbps)
	}
}

func TestAdaptationLayerAblation(t *testing.T) {
	// A wall-clock time follows whatever else the box is doing: a loaded
	// `go test ./...` stalls either side for a scheduler quantum, and a
	// collection the adapted side's copies start can land in its timed
	// loop. Contention only ever adds time, so each side is estimated by
	// its fastest run, and the sides alternate run by run (each
	// AdaptationLayer call times direct, then adapted), so both meet the
	// same weather. Medians of 7 runs read the adapted hop 6.2-6.8x direct
	// in 3 of 100 runs beside `go test ./internal/orchestrator
	// ./internal/cluster`.
	const runs = 15
	direct, adapted := math.Inf(1), math.Inf(1)
	for i := 0; i < runs; i++ {
		res, err := AdaptationLayer(500)
		if err != nil {
			t.Fatal(err)
		}
		if res.DirectNsPerPkt <= 0 || res.AdaptedNsPerPkt <= 0 {
			t.Fatalf("res = %+v", res)
		}
		direct, adapted = min(direct, res.DirectNsPerPkt), min(adapted, res.AdaptedNsPerPkt)
	}
	// The adapter costs something but must stay within 6x of direct
	// (it adds a demux map lookup and one frame retag copy).
	if adapted > direct*6 {
		t.Errorf("adaptation overhead too large: fastest %.0f vs %.0f ns/pkt over %d runs", adapted, direct, runs)
	}
	// Counts are exact: the retag copy is the one allocation the adapter
	// adds per frame. Whole allocations per frame are compared, as
	// testing.AllocsPerRun does, since the counters are process-wide.
	res, err := AdaptationLayer(500)
	if err != nil {
		t.Fatal(err)
	}
	if math.Floor(res.AdaptedAllocsPerPkt) > math.Floor(res.DirectAllocsPerPkt)+1 {
		t.Errorf("adapted %.2f allocs per frame, direct %.2f: the adapter may add only its retag copy",
			res.AdaptedAllocsPerPkt, res.DirectAllocsPerPkt)
	}
}

func TestPacketPathSweep(t *testing.T) {
	rows := PacketPathSweep([]int{64, 256, 512, 1024, 1500})
	if len(rows) != 5 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if !(r.VMMbps < r.NativeMbps) {
			t.Errorf("size %d: vm %.0f >= native %.0f", r.FrameSize, r.VMMbps, r.NativeMbps)
		}
		if !(r.DPDKMbps > r.NativeMbps) {
			t.Errorf("size %d: dpdk %.0f <= native %.0f", r.FrameSize, r.DPDKMbps, r.NativeMbps)
		}
	}
	// The VM gap must widen at small frames (per-packet tax dominates).
	gapSmall := rows[0].NativeMbps / rows[0].VMMbps
	gapLarge := rows[len(rows)-1].NativeMbps / rows[len(rows)-1].VMMbps
	if gapSmall <= gapLarge {
		t.Errorf("VM tax should dominate at small frames: gap 64B %.2f vs 1500B %.2f", gapSmall, gapLarge)
	}
}

func TestStartupLatenciesAblation(t *testing.T) {
	lat, err := StartupLatencies()
	if err != nil {
		t.Fatal(err)
	}
	if !(lat[un.TechNative] < lat[un.TechDocker] && lat[un.TechDocker] < lat[un.TechVM]) {
		t.Errorf("latency ordering broken: %v", lat)
	}
}
