package pkt

import (
	"strings"
	"testing"
)

func TestICMPRoundTrip(t *testing.T) {
	ip := &IPv4{TTL: 64, Protocol: IPProtocolICMP, SrcIP: ipA, DstIP: ipB}
	icmp := &ICMP{Type: ICMPTypeEchoRequest, ID: 77, Seq: 3}
	data, err := Serialize(
		SerializeOptions{FixLengths: true, ComputeChecksums: true},
		&Ethernet{SrcMAC: macA, DstMAC: macB, EthernetType: EthernetTypeIPv4},
		ip, icmp, Payload("ping-data"),
	)
	if err != nil {
		t.Fatal(err)
	}
	p := NewPacket(data, LayerTypeEthernet, Default)
	got, ok := p.Layer(LayerTypeICMP).(*ICMP)
	if !ok {
		t.Fatalf("no ICMP layer: %v", p)
	}
	if got.Type != ICMPTypeEchoRequest || got.ID != 77 || got.Seq != 3 {
		t.Errorf("icmp = %+v", got)
	}
	if string(got.LayerPayload()) != "ping-data" {
		t.Errorf("payload = %q", got.LayerPayload())
	}
	// The ICMP checksum covers header+payload; re-summing must be zero.
	seg := p.Layer(LayerTypeIPv4).(*IPv4).LayerPayload()
	if Checksum(seg) != 0 {
		t.Error("icmp checksum invalid")
	}
	if got.NextLayerType() != LayerTypePayload {
		t.Error("icmp next layer")
	}
	if len(got.LayerContents()) != ICMPHeaderLen {
		t.Error("icmp contents length")
	}
	// Truncated.
	var short ICMP
	if err := short.DecodeFromBytes([]byte{8, 0}); err == nil {
		t.Error("short icmp accepted")
	}
}

func TestLayerAccessors(t *testing.T) {
	frame := testFrame(t, 7, IPProtocolTCP)
	p := NewPacket(frame, LayerTypeEthernet, Default)

	eth := p.LinkLayer().(*Ethernet)
	if eth.LinkFlow().Src() != macA.Endpoint() {
		t.Error("link flow src")
	}
	if len(eth.LayerContents()) != EthernetHeaderLen {
		t.Error("eth contents")
	}
	v := p.Layer(LayerTypeVLAN).(*VLAN)
	if len(v.LayerContents()) != VLANHeaderLen || len(v.LayerPayload()) == 0 {
		t.Error("vlan accessors")
	}
	ip := p.NetworkLayer().(*IPv4)
	if len(ip.LayerContents()) != IPv4HeaderLen {
		t.Error("ip contents")
	}
	tcp := p.TransportLayer().(*TCP)
	tf := tcp.TransportFlow()
	if tf.Src().Type() != EndpointTCPPort || tf.Dst().String() != "5001" {
		t.Errorf("tcp flow = %v", tf)
	}
	if len(tcp.LayerContents()) != TCPHeaderLen {
		t.Error("tcp contents")
	}
	if tcp.NextLayerType() != LayerTypePayload {
		t.Error("tcp next layer")
	}

	udpFrame := testFrame(t, 0, IPProtocolUDP)
	q := NewPacket(udpFrame, LayerTypeEthernet, Default)
	udp := q.TransportLayer().(*UDP)
	uf := udp.TransportFlow()
	if uf.Src().Type() != EndpointUDPPort || uf.Dst().String() != "5001" {
		t.Errorf("udp flow = %v", uf)
	}
	if len(udp.LayerContents()) != UDPHeaderLen {
		t.Error("udp contents")
	}
}

func TestEndpointAccessors(t *testing.T) {
	e := ipA.Endpoint()
	if e.Type() != EndpointIPv4 {
		t.Error("endpoint type")
	}
	if e.String() != "10.0.0.1" {
		t.Errorf("ip endpoint = %v", e)
	}
	if macA.Endpoint().String() != "02:00:00:00:00:0a" {
		t.Errorf("mac endpoint = %v", macA.Endpoint())
	}
	if (Endpoint{}).String() != "invalid" {
		t.Error("invalid endpoint string")
	}
	// Oversized raw data is rejected.
	if NewEndpoint(EndpointMAC, make([]byte, 20)).Type() != EndpointInvalid {
		t.Error("oversized endpoint accepted")
	}
	for _, tc := range []struct {
		t    EndpointType
		want string
	}{
		{EndpointMAC, "MAC"}, {EndpointIPv4, "IPv4"},
		{EndpointUDPPort, "UDPPort"}, {EndpointTCPPort, "TCPPort"},
		{EndpointInvalid, "Invalid"},
	} {
		if tc.t.String() != tc.want {
			t.Errorf("%v", tc.t)
		}
	}
}

func TestStringers(t *testing.T) {
	if EthernetTypeIPv4.String() != "IPv4" || EthernetTypeARP.String() != "ARP" ||
		EthernetTypeVLAN.String() != "VLAN" || !strings.Contains(EthernetType(0x1234).String(), "1234") {
		t.Error("ethertype strings")
	}
	if IPProtocolESP.String() != "ESP" || IPProtocolICMP.String() != "ICMP" ||
		!strings.Contains(IPProtocol(99).String(), "99") {
		t.Error("ipproto strings")
	}
	if LayerTypeESP.String() != "ESP" || !strings.Contains(LayerType(99).String(), "99") {
		t.Error("layertype strings")
	}
	fl := NewFlow(ipA.Endpoint(), ipB.Endpoint())
	if fl.String() != "10.0.0.1->10.0.0.2" {
		t.Errorf("flow string = %v", fl)
	}
}

func TestESPLayerAccessors(t *testing.T) {
	data, _ := Serialize(SerializeOptions{}, &ESP{SPI: 5, Seq: 6}, Payload("ct"))
	var e ESP
	_ = e.DecodeFromBytes(data)
	if e.LayerType() != LayerTypeESP {
		t.Error("esp layer type")
	}
	if len(e.LayerContents()) != ESPHeaderLen {
		t.Error("esp contents")
	}
	if e.NextLayerType() != LayerTypePayload {
		t.Error("esp next layer")
	}
}

func TestARPAccessorsAndErrors(t *testing.T) {
	arp := &ARP{Operation: ARPReply, SenderMAC: macA, SenderIP: ipA, TargetMAC: macB, TargetIP: ipB}
	data, _ := Serialize(SerializeOptions{}, arp)
	var got ARP
	if err := got.DecodeFromBytes(data); err != nil {
		t.Fatal(err)
	}
	if len(got.LayerContents()) != ARPHeaderLen || got.LayerPayload() != nil {
		t.Error("arp accessors")
	}
	if got.NextLayerType() != LayerTypeZero {
		t.Error("arp next layer")
	}
	// Wrong hardware type.
	bad := append([]byte(nil), data...)
	bad[0] = 9
	if err := got.DecodeFromBytes(bad); err == nil {
		t.Error("bad htype accepted")
	}
	bad = append([]byte(nil), data...)
	bad[4] = 8 // wrong hlen
	if err := got.DecodeFromBytes(bad); err == nil {
		t.Error("bad hlen accepted")
	}
}

func TestMustBuildFramePanicsOnBadSpec(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("no panic")
		}
	}()
	MustBuildFrame(FrameSpec{Proto: IPProtocolICMP}) // unsupported by builder
}

func TestIPv4DecodeErrors(t *testing.T) {
	var ip IPv4
	if err := ip.DecodeFromBytes(make([]byte, 10)); err == nil {
		t.Error("short header accepted")
	}
	bad := make([]byte, 20)
	bad[0] = 0x60 // version 6
	if err := ip.DecodeFromBytes(bad); err == nil {
		t.Error("wrong version accepted")
	}
	bad[0] = 0x43 // IHL 3 < 5
	if err := ip.DecodeFromBytes(bad); err == nil {
		t.Error("tiny IHL accepted")
	}
	bad[0] = 0x4f // IHL 15 > len
	if err := ip.DecodeFromBytes(bad); err == nil {
		t.Error("truncated options accepted")
	}
}

func TestVLANSerializeRejectsBigID(t *testing.T) {
	v := &VLAN{VLANID: 5000}
	if _, err := Serialize(SerializeOptions{}, v); err == nil {
		t.Error("vlan id 5000 accepted")
	}
}

func TestTCPDecodeErrors(t *testing.T) {
	var tcp TCP
	if err := tcp.DecodeFromBytes(make([]byte, 10)); err == nil {
		t.Error("short tcp accepted")
	}
	bad := make([]byte, 20)
	bad[12] = 0xf0 // data offset 60 > len
	if err := tcp.DecodeFromBytes(bad); err == nil {
		t.Error("bad data offset accepted")
	}
}
