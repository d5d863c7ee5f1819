package nf

import (
	"encoding/hex"
	"encoding/json"
	"fmt"

	"repro/internal/pkt"
)

// IPsec port conventions.
const (
	// IPsecPortPlain receives and emits cleartext traffic (the LAN side
	// of the paper's CPE use case).
	IPsecPortPlain = 0
	// IPsecPortEncrypted receives and emits ESP traffic (the WAN side).
	IPsecPortEncrypted = 1
)

// IPsec is an ESP tunnel-mode gateway, the network function of the paper's
// validation (strongSwan configured for ESP in tunnel mode). Cleartext
// frames entering the plain port are encapsulated toward the peer; ESP
// frames entering the encrypted port are authenticated, decrypted and
// emitted on the plain port.
type IPsec struct {
	sadb *SADB
	// peer is the remote tunnel endpoint for outbound traffic.
	peer pkt.Addr
	// gwMAC/peerMAC frame the outer packets on the encrypted side.
	gwMAC, peerMAC pkt.MAC
	// lanMAC frames decapsulated packets on the plain side.
	lanMAC, hostMAC pkt.MAC
}

// NewIPsec builds a gateway with one outbound peer. Frames are re-framed
// with the given MACs on each side.
func NewIPsec(peer pkt.Addr, gwMAC, peerMAC, lanMAC, hostMAC pkt.MAC) *IPsec {
	return &IPsec{
		sadb:    NewSADB(),
		peer:    peer,
		gwMAC:   gwMAC,
		peerMAC: peerMAC,
		lanMAC:  lanMAC,
		hostMAC: hostMAC,
	}
}

// NewIPsecFromConfig builds the gateway from an NF-FG configuration map:
//
//	local:  outer source IPv4 (required)
//	remote: outer destination IPv4 (required)
//	spi:    security parameter index (required, decimal)
//	key:    40 hex chars, AES-128 key || 4-byte salt (required)
//	gw_mac, peer_mac, lan_mac, host_mac: optional MACs
func NewIPsecFromConfig(config map[string]string) (Processor, error) {
	get := func(k string) (string, error) {
		v, ok := config[k]
		if !ok || v == "" {
			return "", fmt.Errorf("nf: ipsec config missing %q", k)
		}
		return v, nil
	}
	localS, err := get("local")
	if err != nil {
		return nil, err
	}
	remoteS, err := get("remote")
	if err != nil {
		return nil, err
	}
	spiS, err := get("spi")
	if err != nil {
		return nil, err
	}
	keyS, err := get("key")
	if err != nil {
		return nil, err
	}
	local, err := pkt.ParseAddr(localS)
	if err != nil {
		return nil, err
	}
	remote, err := pkt.ParseAddr(remoteS)
	if err != nil {
		return nil, err
	}
	var spi uint32
	if _, err := fmt.Sscanf(spiS, "%d", &spi); err != nil {
		return nil, fmt.Errorf("nf: ipsec bad spi %q", spiS)
	}
	key, err := ParseSAKey(keyS)
	if err != nil {
		return nil, err
	}
	mac := func(k string, dflt pkt.MAC) pkt.MAC {
		if v, ok := config[k]; ok {
			if m, err := pkt.ParseMAC(v); err == nil {
				return m
			}
		}
		return dflt
	}
	ips := NewIPsec(remote,
		mac("gw_mac", pkt.MAC{0x02, 0, 0, 0, 0xee, 0x01}),
		mac("peer_mac", pkt.MAC{0x02, 0, 0, 0, 0xee, 0x02}),
		mac("lan_mac", pkt.MAC{0x02, 0, 0, 0, 0xee, 0x03}),
		mac("host_mac", pkt.MAC{0x02, 0, 0, 0, 0xee, 0x04}),
	)
	sa, err := NewSA(spi, local, remote, key)
	if err != nil {
		return nil, err
	}
	if err := ips.AddSA(sa); err != nil {
		return nil, err
	}
	return ips, nil
}

// AddSA installs a security association.
func (g *IPsec) AddSA(sa *SA) error { return g.sadb.Add(sa) }

// SADB exposes the SA database (for tests and inspection).
func (g *IPsec) SADB() *SADB { return g.sadb }

// saState is the wire encoding of one exported SA: identity, key material
// and the mutable send/anti-replay counters.
type saState struct {
	SPI           uint32 `json:"spi"`
	Local         string `json:"local"`
	Remote        string `json:"remote"`
	Key           string `json:"key"` // hex, AES-128 || salt
	Seq           uint32 `json:"seq"`
	ReplayHighest uint32 `json:"replay-highest"`
	ReplayBitmap  uint64 `json:"replay-bitmap"`
}

// saTuple is the steering identity of an SA: the inbound ESP flow from the
// peer. ESP carries no transport ports, so the datapath flow key of those
// frames has zero ports — this tuple hashes exactly like they do.
func saTuple(sa *SA) FlowTuple {
	return FlowTuple{Proto: pkt.IPProtocolESP, Src: sa.Remote, Dst: sa.Local}
}

// ExportFlowState implements StatefulNF: one entry per SA, keyed by the
// peer's inbound ESP flow. The export includes live sequence/anti-replay
// counters so the importing replica neither reuses a GCM nonce nor
// re-accepts a replayed datagram.
func (g *IPsec) ExportFlowState(filter func(FlowTuple) bool) []FlowState {
	var out []FlowState
	for _, sa := range g.sadb.All() {
		t := saTuple(sa)
		if filter != nil && !filter(t) {
			continue
		}
		seq, high, bitmap := sa.exportState()
		data, err := json.Marshal(saState{
			SPI:    sa.SPI,
			Local:  sa.Local.String(),
			Remote: sa.Remote.String(),
			Key:    hex.EncodeToString(sa.KeyMaterial()),
			Seq:    seq, ReplayHighest: high, ReplayBitmap: bitmap,
		})
		if err != nil {
			continue
		}
		out = append(out, FlowState{Tuple: t, Kind: "ipsec-sa", Data: data})
	}
	return out
}

// ImportFlowState implements StatefulNF. An SA already present (same SPI)
// only has its counters merged forward; otherwise the SA is installed.
func (g *IPsec) ImportFlowState(states []FlowState) error {
	for _, st := range states {
		if st.Kind != "ipsec-sa" {
			continue
		}
		var s saState
		if err := json.Unmarshal(st.Data, &s); err != nil {
			return fmt.Errorf("nf: ipsec import: %w", err)
		}
		if sa, ok := g.sadb.BySPI(s.SPI); ok {
			sa.restoreState(s.Seq, s.ReplayHighest, s.ReplayBitmap)
			continue
		}
		local, err := pkt.ParseAddr(s.Local)
		if err != nil {
			return fmt.Errorf("nf: ipsec import: %w", err)
		}
		remote, err := pkt.ParseAddr(s.Remote)
		if err != nil {
			return fmt.Errorf("nf: ipsec import: %w", err)
		}
		key, err := ParseSAKey(s.Key)
		if err != nil {
			return fmt.Errorf("nf: ipsec import: %w", err)
		}
		sa, err := NewSA(s.SPI, local, remote, key)
		if err != nil {
			return fmt.Errorf("nf: ipsec import: %w", err)
		}
		sa.restoreState(s.Seq, s.ReplayHighest, s.ReplayBitmap)
		g.sadb.Put(sa)
	}
	return nil
}

// DropFlowState removes the SAs whose inbound-flow tuple the filter accepts
// — the donor-side cleanup after a bucket migrates to another replica, so a
// later scale-up cannot resurrect a stale send counter (which would reuse
// GCM nonces). A nil filter clears the whole database.
func (g *IPsec) DropFlowState(filter func(FlowTuple) bool) {
	for _, sa := range g.sadb.All() {
		if filter != nil && !filter(saTuple(sa)) {
			continue
		}
		g.sadb.Remove(sa.SPI)
	}
}

// Process implements Processor.
func (g *IPsec) Process(inPort int, frame []byte) (Result, error) {
	switch inPort {
	case IPsecPortPlain:
		return g.encap(frame)
	case IPsecPortEncrypted:
		return g.decap(frame)
	default:
		return Result{}, fmt.Errorf("nf: ipsec has no port %d", inPort)
	}
}

func (g *IPsec) encap(frame []byte) (Result, error) {
	var eth pkt.Ethernet
	if err := eth.DecodeFromBytes(frame); err != nil {
		return Result{}, err
	}
	if eth.EthernetType != pkt.EthernetTypeIPv4 {
		// Non-IP traffic (e.g. ARP) is not tunneled; drop silently as
		// a real gateway's policy would.
		return Result{}, nil
	}
	innerIP := eth.LayerPayload()
	sa, ok := g.sadb.ByPeer(g.peer)
	if !ok {
		return Result{}, fmt.Errorf("nf: no outbound SA toward %v", g.peer)
	}
	out := sa.seal(pkt.EthernetHeaderLen, innerIP)
	outEth := pkt.Ethernet{SrcMAC: g.gwMAC, DstMAC: g.peerMAC, EthernetType: pkt.EthernetTypeIPv4}
	outEth.PutHeader(out)
	return Result{
		Emissions:   []Emission{{Port: IPsecPortEncrypted, Frame: out}},
		CryptoBytes: len(innerIP),
	}, nil
}

func (g *IPsec) decap(frame []byte) (Result, error) {
	var eth pkt.Ethernet
	if err := eth.DecodeFromBytes(frame); err != nil {
		return Result{}, err
	}
	if eth.EthernetType != pkt.EthernetTypeIPv4 {
		return Result{}, nil
	}
	outerIP := eth.LayerPayload()
	var ip pkt.IPv4
	if err := ip.DecodeFromBytes(outerIP); err != nil {
		return Result{}, err
	}
	if ip.Protocol != pkt.IPProtocolESP {
		// Cleartext traffic on the encrypted side is not ours.
		return Result{}, nil
	}
	var esp pkt.ESP
	if err := esp.DecodeFromBytes(ip.LayerPayload()); err != nil {
		return Result{}, err
	}
	sa, ok := g.sadb.BySPI(esp.SPI)
	if !ok {
		return Result{}, fmt.Errorf("nf: no SA for SPI %#x", esp.SPI)
	}
	out, err := sa.open(pkt.EthernetHeaderLen, outerIP)
	if err != nil {
		return Result{}, err
	}
	outEth := pkt.Ethernet{SrcMAC: g.lanMAC, DstMAC: g.hostMAC, EthernetType: pkt.EthernetTypeIPv4}
	outEth.PutHeader(out)
	return Result{
		Emissions:   []Emission{{Port: IPsecPortPlain, Frame: out}},
		CryptoBytes: len(out) - pkt.EthernetHeaderLen,
	}, nil
}
