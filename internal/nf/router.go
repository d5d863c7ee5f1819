package nf

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"

	"repro/internal/pkt"
)

// Route is one static routing entry.
type Route struct {
	Prefix  string // CIDR
	Port    int    // egress NF port
	NextHop pkt.MAC
	SrcMAC  pkt.MAC
	net     prefix
}

// Router is a static IPv4 router NF: longest-prefix-match forwarding with
// TTL decrement and L2 rewrite.
type Router struct {
	mu     sync.RWMutex
	routes []Route // sorted by prefix length, longest first
}

// NewRouter builds an empty router.
func NewRouter() *Router { return &Router{} }

// NewRouterFromConfig builds a router from an NF-FG configuration map:
//
//	routes: semicolon-separated "CIDR,port,nexthopMAC,srcMAC" entries
func NewRouterFromConfig(config map[string]string) (Processor, error) {
	r := NewRouter()
	spec, ok := config["routes"]
	if !ok || strings.TrimSpace(spec) == "" {
		return r, nil
	}
	for _, rs := range strings.Split(spec, ";") {
		rs = strings.TrimSpace(rs)
		if rs == "" {
			continue
		}
		parts := strings.Split(rs, ",")
		if len(parts) != 4 {
			return nil, fmt.Errorf("nf: route %q must be CIDR,port,nexthop,src", rs)
		}
		port, err := strconv.Atoi(strings.TrimSpace(parts[1]))
		if err != nil {
			return nil, fmt.Errorf("nf: route %q: bad port", rs)
		}
		nh, err := pkt.ParseMAC(strings.TrimSpace(parts[2]))
		if err != nil {
			return nil, err
		}
		src, err := pkt.ParseMAC(strings.TrimSpace(parts[3]))
		if err != nil {
			return nil, err
		}
		if err := r.AddRoute(Route{Prefix: strings.TrimSpace(parts[0]), Port: port, NextHop: nh, SrcMAC: src}); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// AddRoute installs a route.
func (r *Router) AddRoute(rt Route) error {
	p, err := parsePrefix(rt.Prefix)
	if err != nil {
		return err
	}
	rt.net = p
	r.mu.Lock()
	defer r.mu.Unlock()
	r.routes = append(r.routes, rt)
	sort.SliceStable(r.routes, func(i, j int) bool {
		return r.routes[i].net.bits > r.routes[j].net.bits
	})
	return nil
}

// numRoutes returns the routing table size.
func (r *Router) numRoutes() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.routes)
}

// lookup performs longest-prefix match.
func (r *Router) lookup(dst pkt.Addr) (Route, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	for _, rt := range r.routes {
		if rt.net.contains(dst) {
			return rt, true
		}
	}
	return Route{}, false
}

// Process implements Processor.
func (r *Router) Process(inPort int, frame []byte) (Result, error) {
	var eth pkt.Ethernet
	if err := eth.DecodeFromBytes(frame); err != nil {
		return Result{}, err
	}
	if eth.EthernetType != pkt.EthernetTypeIPv4 {
		return Result{}, nil // routers drop non-IP
	}
	ipBytes := eth.LayerPayload()
	var ip pkt.IPv4
	if err := ip.DecodeFromBytes(ipBytes); err != nil {
		return Result{}, err
	}
	if ip.TTL <= 1 {
		return Result{}, nil // TTL expired; a full router would send ICMP
	}
	rt, ok := r.lookup(ip.DstIP)
	if !ok {
		return Result{}, nil // no route
	}

	// Rewrite in place on a pooled copy: TTL-1, incremental checksum, new
	// MACs.
	out := pkt.GetBuffer(len(frame))
	copy(out, frame)
	copy(out[0:6], rt.NextHop[:])
	copy(out[6:12], rt.SrcMAC[:])
	ipOff := pkt.EthernetHeaderLen
	out[ipOff+8]--
	// RFC 1624 incremental checksum update for the TTL decrement.
	cks := uint32(out[ipOff+10])<<8 | uint32(out[ipOff+11])
	cks += 0x0100 // adding 1 to the ones'-complement sum of ~TTL field
	if cks > 0xffff {
		cks = (cks & 0xffff) + 1
	}
	out[ipOff+10] = byte(cks >> 8)
	out[ipOff+11] = byte(cks)

	return Result{Emissions: []Emission{{Port: rt.Port, Frame: out}}}, nil
}
