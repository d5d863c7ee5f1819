package global_test

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	un "repro"
	"repro/internal/global"
	"repro/internal/netdev"
	"repro/internal/nffg"
	"repro/internal/pkt"
)

// TestHTTPNodeVerbs drives every Node verb of the REST-backed
// node handle against a real Universal Node behind its HTTP handler — the
// transport the global orchestrator rides in a distributed deployment.
func TestHTTPNodeVerbs(t *testing.T) {
	node, err := un.NewNode(un.Config{Name: "hn"})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(node.Handler())
	t.Cleanup(func() {
		srv.Close()
		node.Close()
	})
	// A trailing slash must be normalized away.
	h := global.NewHTTPNode("hn", srv.URL+"/", nil)
	if h.Name() != "hn" {
		t.Fatalf("name = %q", h.Name())
	}

	g := haNATGraph("hng")
	g.NFs[0].Availability = 0
	g.NFs[0].Redundancy = ""
	if err := h.Deploy(g); err != nil {
		t.Fatal(err)
	}
	st, err := h.Status()
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Graphs) != 1 || st.Graphs[0] != "hng" {
		t.Errorf("graphs = %v", st.Graphs)
	}
	if st.TotalCPUMillis == 0 || st.TotalRAMBytes == 0 || len(st.Interfaces) == 0 {
		t.Errorf("status missing capacity: %+v", st)
	}
	if len(st.NFs) != 1 || st.NFs[0].NF != "nat" {
		t.Errorf("nf status = %+v", st.NFs)
	}

	// One live connection so the NAT holds exportable state.
	lan, _ := node.InterfacePort("eth0")
	wan, _ := node.InterfacePort("eth1")
	frame := pkt.MustBuildFrame(pkt.FrameSpec{
		SrcMAC: pkt.MAC{2, 0, 0, 0, 0, 1}, DstMAC: pkt.MAC{2, 0, 0, 0, 0, 2},
		SrcIP: pkt.Addr{10, 0, 0, 1}, DstIP: pkt.Addr{203, 0, 113, 50},
		SrcPort: 30001, DstPort: 53, PayloadLen: 64,
	})
	if err := lan.Send(netdev.Frame{Data: frame}); err != nil {
		t.Fatal(err)
	}
	if _, ok := wan.TryRecv(); !ok {
		t.Fatal("NAT dropped the probe")
	}

	states, err := h.ExportNFState("hng", "nat")
	if err != nil {
		t.Fatal(err)
	}
	if len(states) == 0 {
		t.Fatal("no flow state exported")
	}
	if err := h.ImportNFState("hng", "nat", states); err != nil {
		t.Fatal(err)
	}
	if _, err := h.ExportNFState("ghost", "nat"); err == nil {
		t.Error("export from unknown graph succeeded")
	}
	if err := h.ImportNFState("ghost", "nat", states); err == nil {
		t.Error("import into unknown graph succeeded")
	}

	if err := h.Scale("hng", "nat", 2); err != nil {
		t.Fatal(err)
	}
	if err := h.Reflavor("hng", "nat", nffg.TechDocker); err != nil {
		t.Fatal(err)
	}
	spec, ok, err := h.GraphSpec("hng")
	if err != nil || !ok || spec.ID != "hng" {
		t.Fatalf("GraphSpec = %v, %v, %v", spec, ok, err)
	}
	if _, ok, err := h.GraphSpec("ghost"); ok || err != nil {
		t.Fatalf("GraphSpec(ghost) = %v, %v", ok, err)
	}

	g.NFs[0].Config["external_ip"] = "198.51.100.2"
	if err := h.Update(g); err != nil {
		t.Fatal(err)
	}
	if err := h.Undeploy("hng"); err != nil {
		t.Fatal(err)
	}
	if err := h.Undeploy("hng"); err == nil {
		t.Error("double undeploy succeeded")
	}
}

// TestHTTPNodeErrorPaths: every verb surfaces upstream failures with the
// envelope message extracted, for both the v1 and the legacy error forms.
func TestHTTPNodeErrorPaths(t *testing.T) {
	v1 := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.WriteHeader(http.StatusInternalServerError)
		w.Write([]byte(`{"error": {"code": "error", "message": "boom", "detail": ["a", "b"]}}`))
	}))
	defer v1.Close()
	legacy := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.WriteHeader(http.StatusInternalServerError)
		w.Write([]byte(`{"error": "legacy boom"}`))
	}))
	defer legacy.Close()

	g := haNATGraph("x")
	for name, check := range map[string]func(h *global.HTTPNode) error{
		"deploy":   func(h *global.HTTPNode) error { return h.Deploy(g) },
		"undeploy": func(h *global.HTTPNode) error { return h.Undeploy("x") },
		"reflavor": func(h *global.HTTPNode) error { return h.Reflavor("x", "nat", nffg.TechDocker) },
		"scale":    func(h *global.HTTPNode) error { return h.Scale("x", "nat", 2) },
		"import":   func(h *global.HTTPNode) error { return h.ImportNFState("x", "nat", nil) },
		"export": func(h *global.HTTPNode) error {
			_, err := h.ExportNFState("x", "nat")
			return err
		},
		"status": func(h *global.HTTPNode) error {
			_, err := h.Status()
			return err
		},
	} {
		err := check(global.NewHTTPNode("sick", v1.URL, nil))
		if err == nil {
			t.Fatalf("%s against a 500 server succeeded", name)
		}
		// Status decodes no envelope; every other verb must surface it.
		if name != "status" && !strings.Contains(err.Error(), "boom") {
			t.Errorf("%s error lost the envelope message: %v", name, err)
		}
		if err := check(global.NewHTTPNode("sick", legacy.URL, nil)); err == nil {
			t.Fatalf("%s against a legacy-error server succeeded", name)
		}
		// A dead endpoint is a transport error, not a hang.
		if err := check(global.NewHTTPNode("gone", "http://127.0.0.1:1", nil)); err == nil {
			t.Fatalf("%s against a dead endpoint succeeded", name)
		}
	}
	if _, _, err := global.NewHTTPNode("sick", v1.URL, nil).GraphSpec("x"); err == nil {
		t.Error("GraphSpec against a 500 server succeeded")
	}
}
