package nf

import (
	"fmt"
	"strconv"
	"sync"

	"repro/internal/pkt"
)

// Bridge is a MAC-learning Ethernet switch, the NF equivalent of Linux's
// native linuxbridge cited by the paper. It learns source MACs per port and
// forwards to the learned port, flooding unknown and broadcast destinations.
type Bridge struct {
	nPorts int

	mu  sync.RWMutex
	fdb map[pkt.MAC]int // forwarding database: MAC -> port
}

// NewBridge builds a bridge with nPorts ports (minimum 2).
func NewBridge(nPorts int) (*Bridge, error) {
	if nPorts < 2 {
		return nil, fmt.Errorf("nf: bridge needs at least 2 ports, got %d", nPorts)
	}
	return &Bridge{nPorts: nPorts, fdb: make(map[pkt.MAC]int)}, nil
}

// NewBridgeFromConfig builds a bridge from an NF-FG configuration map:
//
//	ports: number of ports (default 2)
func NewBridgeFromConfig(config map[string]string) (Processor, error) {
	n := 2
	if v, ok := config["ports"]; ok {
		parsed, err := strconv.Atoi(v)
		if err != nil {
			return nil, fmt.Errorf("nf: bridge bad ports %q", v)
		}
		n = parsed
	}
	return NewBridge(n)
}

// fdbSize returns the number of learned addresses.
func (b *Bridge) fdbSize() int {
	b.mu.RLock()
	defer b.mu.RUnlock()
	return len(b.fdb)
}

// Lookup returns the port a MAC was learned on.
func (b *Bridge) Lookup(mac pkt.MAC) (int, bool) {
	b.mu.RLock()
	defer b.mu.RUnlock()
	p, ok := b.fdb[mac]
	return p, ok
}

// Process implements Processor.
func (b *Bridge) Process(inPort int, frame []byte) (Result, error) {
	return b.ProcessInto(inPort, frame, nil)
}

// ProcessInto implements IntoProcessor.
func (b *Bridge) ProcessInto(inPort int, frame []byte, out []Emission) (Result, error) {
	if inPort < 0 || inPort >= b.nPorts {
		return Result{}, fmt.Errorf("nf: bridge has no port %d", inPort)
	}
	var eth pkt.Ethernet
	if err := eth.DecodeFromBytes(frame); err != nil {
		return Result{}, err
	}
	// Learn the source.
	if !eth.SrcMAC.IsMulticast() {
		b.mu.Lock()
		b.fdb[eth.SrcMAC] = inPort
		b.mu.Unlock()
	}
	// Forward.
	if !eth.DstMAC.IsBroadcast() && !eth.DstMAC.IsMulticast() {
		b.mu.RLock()
		port, known := b.fdb[eth.DstMAC]
		b.mu.RUnlock()
		if known {
			if port == inPort {
				return Result{}, nil // already on the right segment
			}
			return Result{Emissions: append(out, Emission{Port: port, Frame: frame})}, nil
		}
	}
	// Flood.
	for p := 0; p < b.nPorts; p++ {
		if p != inPort {
			out = append(out, Emission{Port: p, Frame: frame})
		}
	}
	return Result{Emissions: out}, nil
}
