package pkt

import (
	"bytes"
	"testing"
)

var (
	macA = MAC{0x02, 0x00, 0x00, 0x00, 0x00, 0x0a}
	macB = MAC{0x02, 0x00, 0x00, 0x00, 0x00, 0x0b}
	ipA  = Addr{10, 0, 0, 1}
	ipB  = Addr{10, 0, 0, 2}
)

func testFrame(t *testing.T, vlan uint16, proto IPProtocol) []byte {
	t.Helper()
	f, err := BuildFrame(FrameSpec{
		SrcMAC: macA, DstMAC: macB, VLANID: vlan,
		SrcIP: ipA, DstIP: ipB, Proto: proto,
		SrcPort: 1234, DstPort: 5001, PayloadLen: 64, PayloadByte: 0xab,
	})
	if err != nil {
		t.Fatalf("BuildFrame: %v", err)
	}
	return f
}

func TestDecodeEthernetIPv4UDP(t *testing.T) {
	p := NewPacket(testFrame(t, 0, IPProtocolUDP), LayerTypeEthernet, Default)
	if err := p.ErrorLayer(); err != nil {
		t.Fatalf("decode error: %v", err.Error())
	}
	eth, ok := p.Layer(LayerTypeEthernet).(*Ethernet)
	if !ok {
		t.Fatal("missing ethernet layer")
	}
	if eth.SrcMAC != macA || eth.DstMAC != macB {
		t.Errorf("eth MACs = %v -> %v, want %v -> %v", eth.SrcMAC, eth.DstMAC, macA, macB)
	}
	ip, ok := p.Layer(LayerTypeIPv4).(*IPv4)
	if !ok {
		t.Fatal("missing ipv4 layer")
	}
	if ip.SrcIP != ipA || ip.DstIP != ipB {
		t.Errorf("ip addrs = %v -> %v", ip.SrcIP, ip.DstIP)
	}
	if ip.Protocol != IPProtocolUDP {
		t.Errorf("ip proto = %v, want UDP", ip.Protocol)
	}
	udp, ok := p.Layer(LayerTypeUDP).(*UDP)
	if !ok {
		t.Fatal("missing udp layer")
	}
	if udp.SrcPort != 1234 || udp.DstPort != 5001 {
		t.Errorf("udp ports = %d -> %d", udp.SrcPort, udp.DstPort)
	}
	app := p.ApplicationLayer()
	if len(app) != 64 {
		t.Fatalf("payload len = %d, want 64", len(app))
	}
	for _, b := range app {
		if b != 0xab {
			t.Fatalf("payload corrupted: %x", app)
		}
	}
}

func TestDecodeVLANTagged(t *testing.T) {
	p := NewPacket(testFrame(t, 42, IPProtocolUDP), LayerTypeEthernet, Default)
	v, ok := p.Layer(LayerTypeVLAN).(*VLAN)
	if !ok {
		t.Fatal("missing vlan layer")
	}
	if v.VLANID != 42 {
		t.Errorf("vlan id = %d, want 42", v.VLANID)
	}
	if p.Layer(LayerTypeUDP) == nil {
		t.Error("udp layer not reached through vlan tag")
	}
}

func TestDecodeTCP(t *testing.T) {
	p := NewPacket(testFrame(t, 0, IPProtocolTCP), LayerTypeEthernet, Default)
	tcp, ok := p.Layer(LayerTypeTCP).(*TCP)
	if !ok {
		t.Fatal("missing tcp layer")
	}
	if tcp.Flags&TCPFlagACK == 0 {
		t.Error("ACK flag lost")
	}
	if tl := p.TransportLayer(); tl == nil {
		t.Error("TransportLayer() = nil")
	}
}

func TestIPv4ChecksumValid(t *testing.T) {
	frame := testFrame(t, 0, IPProtocolUDP)
	// Verify the IPv4 header checksum over the wire bytes: summing the
	// header including its checksum field must yield 0xffff (i.e. the
	// folded complement is 0).
	hdr := frame[EthernetHeaderLen : EthernetHeaderLen+IPv4HeaderLen]
	if got := Checksum(hdr); got != 0 {
		t.Errorf("ipv4 checksum over full header = %#04x, want 0", got)
	}
}

func TestUDPChecksumValid(t *testing.T) {
	frame := testFrame(t, 0, IPProtocolUDP)
	p := NewPacket(frame, LayerTypeEthernet, Default)
	ip := p.Layer(LayerTypeIPv4).(*IPv4)
	seg := ip.LayerPayload()
	sum := tcpipChecksum(seg, ip.pseudoHeaderChecksum(IPProtocolUDP, uint16(len(seg))))
	if sum != 0 {
		t.Errorf("udp checksum over segment = %#04x, want 0", sum)
	}
}

func TestDecodeFailureKeepsGoodLayers(t *testing.T) {
	frame := testFrame(t, 0, IPProtocolUDP)
	// Truncate inside the UDP header.
	short := frame[:EthernetHeaderLen+IPv4HeaderLen+4]
	p := NewPacket(short, LayerTypeEthernet, Default)
	if p.Layer(LayerTypeEthernet) == nil || p.Layer(LayerTypeIPv4) == nil {
		t.Fatal("good layers discarded on decode failure")
	}
	if p.ErrorLayer() == nil {
		t.Fatal("expected an error layer")
	}
}

func TestNoCopyAliasesData(t *testing.T) {
	frame := testFrame(t, 0, IPProtocolUDP)
	p := NewPacket(frame, LayerTypeEthernet, NoCopy)
	if &p.Data()[0] != &frame[0] {
		t.Error("NoCopy copied the data")
	}
	q := NewPacket(frame, LayerTypeEthernet, Default)
	if &q.Data()[0] == &frame[0] {
		t.Error("Default did not copy the data")
	}
}

func TestARPRoundTrip(t *testing.T) {
	arp := &ARP{
		Operation: ARPRequest,
		SenderMAC: macA, SenderIP: ipA,
		TargetIP: ipB,
	}
	eth := &Ethernet{SrcMAC: macA, DstMAC: MAC{0xff, 0xff, 0xff, 0xff, 0xff, 0xff}, EthernetType: EthernetTypeARP}
	data, err := Serialize(SerializeOptions{}, eth, arp)
	if err != nil {
		t.Fatalf("serialize: %v", err)
	}
	p := NewPacket(data, LayerTypeEthernet, Default)
	got, ok := p.Layer(LayerTypeARP).(*ARP)
	if !ok {
		t.Fatal("missing arp layer")
	}
	if got.Operation != ARPRequest || got.SenderIP != ipA || got.TargetIP != ipB {
		t.Errorf("arp round trip mismatch: %+v", got)
	}
}

func TestESPRoundTrip(t *testing.T) {
	esp := &ESP{SPI: 0xdeadbeef, Seq: 77}
	data, err := Serialize(SerializeOptions{}, esp, Payload([]byte("ciphertext")))
	if err != nil {
		t.Fatalf("serialize: %v", err)
	}
	var got ESP
	if err := got.DecodeFromBytes(data); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if got.SPI != 0xdeadbeef || got.Seq != 77 {
		t.Errorf("esp = %+v", got)
	}
	if string(got.LayerPayload()) != "ciphertext" {
		t.Errorf("esp payload = %q", got.LayerPayload())
	}
}

func TestSerializePrependOrder(t *testing.T) {
	b := NewSerializeBuffer()
	err := SerializeLayers(b, SerializeOptions{},
		Payload([]byte("AA")), Payload([]byte("BB")))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b.Bytes(), []byte("AABB")) {
		t.Errorf("bytes = %q, want AABB", b.Bytes())
	}
}

func TestSerializeBufferGrowth(t *testing.T) {
	b := NewSerializeBufferExpectedSize(0, 0)
	for i := 0; i < 100; i++ {
		s, err := b.PrependBytes(3)
		if err != nil {
			t.Fatal(err)
		}
		copy(s, "abc")
	}
	if len(b.Bytes()) != 300 {
		t.Fatalf("len = %d, want 300", len(b.Bytes()))
	}
}

func TestFlowEndpoints(t *testing.T) {
	p := NewPacket(testFrame(t, 0, IPProtocolUDP), LayerTypeEthernet, Default)
	nf := p.NetworkLayer().NetworkFlow()
	src, dst := nf.Endpoints()
	if src.String() != "10.0.0.1" || dst.String() != "10.0.0.2" {
		t.Errorf("flow = %v -> %v", src, dst)
	}
	if nf.FastHash() != NewFlow(dst, src).FastHash() {
		t.Error("FastHash must be symmetric")
	}
	m := map[Flow]int{nf: 1}
	if m[NewFlow(src, dst)] != 1 {
		t.Error("flow not usable as map key")
	}
}

func TestMACHelpers(t *testing.T) {
	m, err := ParseMAC("02:00:00:00:00:0a")
	if err != nil {
		t.Fatal(err)
	}
	if m != macA {
		t.Errorf("ParseMAC = %v", m)
	}
	if !(MAC{0xff, 0xff, 0xff, 0xff, 0xff, 0xff}).IsBroadcast() {
		t.Error("broadcast not detected")
	}
	if !(MAC{0x01, 0, 0x5e, 0, 0, 1}).IsMulticast() {
		t.Error("multicast not detected")
	}
	if macA.IsMulticast() {
		t.Error("unicast misdetected as multicast")
	}
}

func TestAddrHelpers(t *testing.T) {
	a := MustAddr("192.168.1.7")
	if a.String() != "192.168.1.7" {
		t.Errorf("round trip = %v", a)
	}
	if a.Uint32() != 0xc0a80107 {
		t.Errorf("Uint32 = %#x", a.Uint32())
	}
	if _, err := ParseAddr("not-an-ip"); err == nil {
		t.Error("ParseAddr accepted garbage")
	}
}

func TestPacketString(t *testing.T) {
	p := NewPacket(testFrame(t, 42, IPProtocolUDP), LayerTypeEthernet, Default)
	s := p.String()
	for _, want := range []string{"Ethernet", "VLAN", "IPv4", "UDP"} {
		if !bytes.Contains([]byte(s), []byte(want)) {
			t.Errorf("String() = %q missing %q", s, want)
		}
	}
}
