package nf

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/pkt"
)

// FlowCount is one monitored flow's counters.
type FlowCount struct {
	Flow    pkt.Flow
	Packets uint64
	Bytes   uint64
}

// Monitor is a transparent per-flow accounting NF (a minimal DPI/telemetry
// function). Frames pass between ports 0 and 1 unchanged while the monitor
// counts packets and bytes per network flow.
type Monitor struct {
	mu    sync.Mutex
	flows map[pkt.Flow]*FlowCount
	other uint64 // non-IP frames
}

// NewMonitor builds an empty monitor.
func NewMonitor() *Monitor {
	return &Monitor{flows: make(map[pkt.Flow]*FlowCount)}
}

// NewMonitorFromConfig builds a monitor; it takes no configuration.
func NewMonitorFromConfig(map[string]string) (Processor, error) {
	return NewMonitor(), nil
}

// Process implements Processor.
func (m *Monitor) Process(inPort int, frame []byte) (Result, error) {
	return m.ProcessInto(inPort, frame, nil)
}

// ProcessInto implements IntoProcessor.
func (m *Monitor) ProcessInto(inPort int, frame []byte, out []Emission) (Result, error) {
	if inPort != 0 && inPort != 1 {
		return Result{}, fmt.Errorf("nf: monitor has no port %d", inPort)
	}
	var h headers
	h.decode(frame)
	if h.hasIP {
		fl := h.ip.NetworkFlow()
		m.mu.Lock()
		fc, ok := m.flows[fl]
		if !ok {
			fc = &FlowCount{Flow: fl}
			m.flows[fl] = fc
		}
		fc.Packets++
		fc.Bytes += uint64(len(frame))
		m.mu.Unlock()
	} else {
		m.mu.Lock()
		m.other++
		m.mu.Unlock()
	}
	return Result{Emissions: append(out, Emission{Port: 1 - inPort, Frame: frame})}, nil
}

// Flows returns a snapshot of all flow counters, ordered by descending
// packet count.
func (m *Monitor) Flows() []FlowCount {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]FlowCount, 0, len(m.flows))
	for _, fc := range m.flows {
		out = append(out, *fc)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Packets != out[j].Packets {
			return out[i].Packets > out[j].Packets
		}
		return out[i].Flow.String() < out[j].Flow.String()
	})
	return out
}

// nonIPPackets returns the count of frames without a network layer.
func (m *Monitor) nonIPPackets() uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.other
}
