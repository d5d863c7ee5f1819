package nf

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"testing"

	"repro/internal/pkt"
)

// serializeOracle is how the NAT rewrote frames before it wrote them into a
// pooled buffer: decode with pkt.NewPacket, replace one address and port,
// re-serialize the layers with pkt.Serialize.
func serializeOracle(t *testing.T, frame []byte, outbound bool, addr pkt.Addr, port uint16) []byte {
	t.Helper()
	p := pkt.NewPacket(frame, pkt.LayerTypeEthernet, pkt.Default)
	eth := p.Layer(pkt.LayerTypeEthernet).(*pkt.Ethernet)
	ip := p.Layer(pkt.LayerTypeIPv4).(*pkt.IPv4)
	if outbound {
		ip.SrcIP = addr
	} else {
		ip.DstIP = addr
	}
	opts := pkt.SerializeOptions{FixLengths: true, ComputeChecksums: true}
	newEth := &pkt.Ethernet{SrcMAC: eth.SrcMAC, DstMAC: eth.DstMAC, EthernetType: pkt.EthernetTypeIPv4}
	newIP := &pkt.IPv4{
		TOS: ip.TOS, ID: ip.ID, Flags: ip.Flags, FragOff: ip.FragOff,
		TTL: ip.TTL, Protocol: ip.Protocol, SrcIP: ip.SrcIP, DstIP: ip.DstIP,
	}
	var out []byte
	var err error
	switch l4 := p.TransportLayer().(type) {
	case *pkt.UDP:
		u := &pkt.UDP{SrcPort: l4.SrcPort, DstPort: l4.DstPort}
		if outbound {
			u.SrcPort = port
		} else {
			u.DstPort = port
		}
		u.SetNetworkLayerForChecksum(newIP)
		out, err = pkt.Serialize(opts, newEth, newIP, u, pkt.Payload(l4.LayerPayload()))
	case *pkt.TCP:
		tc := &pkt.TCP{
			SrcPort: l4.SrcPort, DstPort: l4.DstPort,
			Seq: l4.Seq, Ack: l4.Ack, Flags: l4.Flags, Window: l4.Window, Urgent: l4.Urgent,
		}
		if outbound {
			tc.SrcPort = port
		} else {
			tc.DstPort = port
		}
		tc.SetNetworkLayerForChecksum(newIP)
		out, err = pkt.Serialize(opts, newEth, newIP, tc, pkt.Payload(l4.LayerPayload()))
	default:
		t.Fatalf("oracle: no transport layer in %v", p)
	}
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// natShape is the layout of a generated frame; everything it does not fix
// is random.
type natShape struct {
	tags    int  // 802.1Q tags in front of IPv4
	ipOpts  int  // IPv4 option words
	tcp     bool // TCP, or UDP
	tcpOpts int  // TCP option words
	payload int
	// udpLen, when non-zero, is the UDP length field instead of the
	// datagram's true length (shorter, or past the end).
	udpLen  uint16
	trailer int // bytes past the IPv4 total length (Ethernet padding)
}

func (s natShape) frame(r *rand.Rand, src, dst pkt.Addr, sport, dport uint16) []byte {
	rnd := func(n int) []byte {
		b := make([]byte, n)
		r.Read(b)
		return b
	}
	l4hdr := pkt.UDPHeaderLen
	if s.tcp {
		l4hdr = pkt.TCPHeaderLen + 4*s.tcpOpts
	}
	seg := append(rnd(l4hdr), rnd(s.payload)...)
	binary.BigEndian.PutUint16(seg[0:2], sport)
	binary.BigEndian.PutUint16(seg[2:4], dport)
	proto := pkt.IPProtocolUDP
	if s.tcp {
		proto = pkt.IPProtocolTCP
		seg[12] = byte(5+s.tcpOpts)<<4 | seg[12]&0x0f // keep the random reserved/NS bits
	} else {
		n := uint16(len(seg))
		if s.udpLen != 0 {
			n = s.udpLen
		}
		binary.BigEndian.PutUint16(seg[4:6], n)
	}
	ihl := pkt.IPv4HeaderLen + 4*s.ipOpts
	ip := rnd(ihl)
	ip[0] = 4<<4 | byte(ihl/4)
	binary.BigEndian.PutUint16(ip[2:4], uint16(ihl+len(seg)))
	ip[9] = byte(proto)
	copy(ip[12:16], src[:])
	copy(ip[16:20], dst[:])

	frame := rnd(12) // MACs
	for i := 0; i < s.tags; i++ {
		frame = append(frame, 0x81, 0x00)
		frame = append(frame, rnd(2)...) // TCI
	}
	frame = append(frame, 0x08, 0x00)
	frame = append(frame, ip...)
	frame = append(frame, seg...)
	return append(frame, rnd(s.trailer)...)
}

// TestNATRewriteMatchesSerialize holds the NAT's pooled in-place rewrite to
// the bytes the Serialize-based rewrite produced, in both directions, over
// random frames: VLAN tags (dropped), IPv4 and TCP options (dropped), UDP
// length fields shorter than the datagram or past its end, reserved TCP
// bits, random checksums (recomputed), and Ethernet padding past the IPv4
// total length (trimmed).
func TestNATRewriteMatchesSerialize(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	ext := pkt.Addr{198, 51, 100, 1}
	n := NewNAT(ext)
	for i := 0; i < 500; i++ {
		s := natShape{
			tags: r.Intn(3), ipOpts: r.Intn(3), tcp: r.Intn(2) == 0, tcpOpts: r.Intn(3),
			payload: r.Intn(120), trailer: r.Intn(3) * r.Intn(30),
		}
		if !s.tcp && r.Intn(3) == 0 {
			s.udpLen = uint16(pkt.UDPHeaderLen + r.Intn(s.payload+40))
		}
		inside, remote := pkt.Addr{10, 0, byte(r.Intn(4)), byte(1 + r.Intn(200))}, pkt.Addr{203, 0, 113, byte(r.Intn(256))}
		sport, dport := uint16(1024+r.Intn(60000)), uint16(1+r.Intn(1000))

		out := s.frame(r, inside, remote, sport, dport)
		res, err := n.Process(NATPortInside, out)
		if err != nil || len(res.Emissions) != 1 {
			t.Fatalf("frame %d %+v: outbound %d emissions, error %v", i, s, len(res.Emissions), err)
		}
		var h headers
		h.decode(res.Emissions[0].Frame)
		bound := h.srcPort
		if want := serializeOracle(t, out, true, ext, bound); !bytes.Equal(res.Emissions[0].Frame, want) {
			t.Fatalf("frame %d %+v outbound:\n got %x\nwant %x", i, s, res.Emissions[0].Frame, want)
		}

		back := s.frame(r, remote, ext, dport, bound)
		res, err = n.Process(NATPortOutside, back)
		if err != nil || len(res.Emissions) != 1 {
			t.Fatalf("frame %d %+v: inbound %d emissions, error %v", i, s, len(res.Emissions), err)
		}
		if want := serializeOracle(t, back, false, inside, sport); !bytes.Equal(res.Emissions[0].Frame, want) {
			t.Fatalf("frame %d %+v inbound:\n got %x\nwant %x", i, s, res.Emissions[0].Frame, want)
		}
	}
}
