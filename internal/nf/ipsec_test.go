package nf

import (
	"bytes"
	"encoding/hex"
	"math/rand"
	"testing"

	"repro/internal/pkt"
)

var (
	macA  = pkt.MAC{2, 0, 0, 0, 0, 0xa}
	macB  = pkt.MAC{2, 0, 0, 0, 0, 0xb}
	ipA   = pkt.Addr{10, 0, 0, 1}
	ipB   = pkt.Addr{10, 0, 0, 2}
	gwIP  = pkt.Addr{192, 0, 2, 1}
	rmtIP = pkt.Addr{203, 0, 113, 9}
)

var testKey = []byte{
	0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, // AES-128
	16, 17, 18, 19, // salt
}

func newSA(t *testing.T, spi uint32) *SA {
	t.Helper()
	sa, err := NewSA(spi, gwIP, rmtIP, testKey)
	if err != nil {
		t.Fatal(err)
	}
	return sa
}

func innerPacket(t testing.TB, payloadLen int) []byte {
	t.Helper()
	ip := &pkt.IPv4{TTL: 64, Protocol: pkt.IPProtocolUDP, SrcIP: ipA, DstIP: ipB}
	udp := &pkt.UDP{SrcPort: 1111, DstPort: 2222}
	udp.SetNetworkLayerForChecksum(ip)
	data, err := pkt.Serialize(
		pkt.SerializeOptions{FixLengths: true, ComputeChecksums: true},
		ip, udp, pkt.Payload(bytes.Repeat([]byte{0x5a}, payloadLen)),
	)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func TestESPEncapDecapRoundTrip(t *testing.T) {
	tx, rx := newSA(t, 0x100), newSA(t, 0x100)
	inner := innerPacket(t, 100)
	outer, err := tx.Encapsulate(inner)
	if err != nil {
		t.Fatal(err)
	}
	// The outer packet must be valid IPv4/ESP between the endpoints.
	var ip pkt.IPv4
	if err := ip.DecodeFromBytes(outer); err != nil {
		t.Fatal(err)
	}
	if ip.Protocol != pkt.IPProtocolESP || ip.SrcIP != gwIP || ip.DstIP != rmtIP {
		t.Errorf("outer = %+v", ip)
	}
	// Ciphertext must not contain the plaintext.
	if bytes.Contains(outer, inner[:20]) {
		t.Error("plaintext leaked into ESP packet")
	}
	got, err := rx.Decapsulate(outer)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, inner) {
		t.Error("decapsulated packet differs from original")
	}
}

func TestESPRejectsTamper(t *testing.T) {
	tx, rx := newSA(t, 0x200), newSA(t, 0x200)
	outer, _ := tx.Encapsulate(innerPacket(t, 64))
	// Flip one ciphertext bit.
	tampered := append([]byte(nil), outer...)
	tampered[len(tampered)-1] ^= 0x01
	if _, err := rx.Decapsulate(tampered); err == nil {
		t.Error("tampered packet accepted")
	}
	// Unmodified still fine.
	if _, err := rx.Decapsulate(outer); err != nil {
		t.Errorf("clean packet rejected: %v", err)
	}
}

func TestESPReplayProtection(t *testing.T) {
	tx, rx := newSA(t, 0x300), newSA(t, 0x300)
	p1, _ := tx.Encapsulate(innerPacket(t, 10))
	p2, _ := tx.Encapsulate(innerPacket(t, 10))
	if _, err := rx.Decapsulate(p1); err != nil {
		t.Fatal(err)
	}
	if _, err := rx.Decapsulate(p2); err != nil {
		t.Fatal(err)
	}
	// Replaying either must fail.
	if _, err := rx.Decapsulate(p1); err == nil {
		t.Error("replayed packet 1 accepted")
	}
	if _, err := rx.Decapsulate(p2); err == nil {
		t.Error("replayed packet 2 accepted")
	}
}

func TestESPOutOfOrderWithinWindow(t *testing.T) {
	tx, rx := newSA(t, 0x400), newSA(t, 0x400)
	var packets [][]byte
	for i := 0; i < 10; i++ {
		p, _ := tx.Encapsulate(innerPacket(t, 10))
		packets = append(packets, p)
	}
	// Deliver newest first, then the rest: all must pass once.
	order := []int{9, 3, 0, 7, 1, 2, 8, 4, 6, 5}
	for _, i := range order {
		if _, err := rx.Decapsulate(packets[i]); err != nil {
			t.Fatalf("packet %d rejected: %v", i, err)
		}
	}
}

func TestESPWindowTooOld(t *testing.T) {
	tx, rx := newSA(t, 0x500), newSA(t, 0x500)
	first, _ := tx.Encapsulate(innerPacket(t, 10))
	// Advance the window far beyond replayWindowSize.
	var last []byte
	for i := 0; i < replayWindowSize+8; i++ {
		last, _ = tx.Encapsulate(innerPacket(t, 10))
	}
	if _, err := rx.Decapsulate(last); err != nil {
		t.Fatal(err)
	}
	if _, err := rx.Decapsulate(first); err == nil {
		t.Error("ancient packet accepted outside replay window")
	}
}

func TestReplayWindowUnit(t *testing.T) {
	var w replayWindow
	if w.check(0) {
		t.Error("seq 0 accepted")
	}
	if !w.check(1) || w.check(1) {
		t.Error("seq 1 handling broken")
	}
	if !w.check(100) {
		t.Error("forward jump rejected")
	}
	if !w.check(99) || w.check(99) {
		t.Error("in-window out-of-order handling broken")
	}
	if w.check(100 - replayWindowSize) {
		t.Error("too-old seq accepted")
	}
	if !w.check(100 - replayWindowSize + 1) {
		t.Error("oldest in-window seq rejected")
	}
}

func TestSAKeyValidation(t *testing.T) {
	if _, err := NewSA(0, gwIP, rmtIP, testKey); err == nil {
		t.Error("SPI 0 accepted")
	}
	if _, err := NewSA(1, gwIP, rmtIP, testKey[:10]); err == nil {
		t.Error("short key accepted")
	}
	if _, err := ParseSAKey("zz"); err == nil {
		t.Error("bad hex accepted")
	}
	if _, err := ParseSAKey("00112233445566778899aabbccddeeff00112233"); err != nil {
		t.Errorf("valid key rejected: %v", err)
	}
	if _, err := ParseSAKey("0011"); err == nil {
		t.Error("short hex accepted")
	}
}

func TestSADB(t *testing.T) {
	db := NewSADB()
	sa := newSA(t, 7)
	if err := db.Add(sa); err != nil {
		t.Fatal(err)
	}
	if err := db.Add(newSA(t, 7)); err == nil {
		t.Error("duplicate SPI accepted")
	}
	if got, ok := db.BySPI(7); !ok || got != sa {
		t.Error("BySPI failed")
	}
	if got, ok := db.ByPeer(rmtIP); !ok || got != sa {
		t.Error("ByPeer failed")
	}
	if _, ok := db.BySPI(8); ok {
		t.Error("phantom SPI")
	}
	if db.Len() != 1 {
		t.Errorf("len = %d", db.Len())
	}
}

// gateway builds two IPsec processors sharing a key, as two tunnel ends.
func gatewayPair(t testing.TB) (*IPsec, *IPsec) {
	t.Helper()
	left := NewIPsec(rmtIP, macA, macB, macA, macB)
	saL, err := NewSA(0x1000, gwIP, rmtIP, testKey)
	if err != nil {
		t.Fatal(err)
	}
	if err := left.AddSA(saL); err != nil {
		t.Fatal(err)
	}
	right := NewIPsec(gwIP, macB, macA, macB, macA)
	saR, err := NewSA(0x1000, rmtIP, gwIP, testKey)
	if err != nil {
		t.Fatal(err)
	}
	if err := right.AddSA(saR); err != nil {
		t.Fatal(err)
	}
	return left, right
}

func TestIPsecGatewayEndToEnd(t *testing.T) {
	left, right := gatewayPair(t)
	clearFrame := pkt.MustBuildFrame(pkt.FrameSpec{
		SrcMAC: macA, DstMAC: macB, SrcIP: ipA, DstIP: ipB,
		SrcPort: 40000, DstPort: 5001, PayloadLen: 256, PayloadByte: 0x77,
	})

	// LAN -> left gateway: encapsulate.
	res, err := left.Process(IPsecPortPlain, clearFrame)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Emissions) != 1 || res.Emissions[0].Port != IPsecPortEncrypted {
		t.Fatalf("encap emissions = %+v", res.Emissions)
	}
	if res.CryptoBytes == 0 {
		t.Error("no crypto bytes reported")
	}
	wire := res.Emissions[0].Frame

	// The wire format is Ethernet/IPv4(ESP).
	p := pkt.NewPacket(wire, pkt.LayerTypeEthernet, pkt.Default)
	if p.Layer(pkt.LayerTypeESP) == nil {
		t.Fatalf("no ESP on the wire: %v", p)
	}

	// WAN -> right gateway: decapsulate.
	res2, err := right.Process(IPsecPortEncrypted, wire)
	if err != nil {
		t.Fatal(err)
	}
	if len(res2.Emissions) != 1 || res2.Emissions[0].Port != IPsecPortPlain {
		t.Fatalf("decap emissions = %+v", res2.Emissions)
	}
	out := pkt.NewPacket(res2.Emissions[0].Frame, pkt.LayerTypeEthernet, pkt.Default)
	udp, ok := out.Layer(pkt.LayerTypeUDP).(*pkt.UDP)
	if !ok || udp.DstPort != 5001 {
		t.Fatalf("inner packet damaged: %v", out)
	}
	app := out.ApplicationLayer()
	if len(app) != 256 || app[0] != 0x77 {
		t.Error("payload damaged through the tunnel")
	}
}

func TestIPsecNonIPDropped(t *testing.T) {
	left, _ := gatewayPair(t)
	arp := &pkt.ARP{Operation: pkt.ARPRequest, SenderMAC: macA, SenderIP: ipA, TargetIP: ipB}
	eth := &pkt.Ethernet{SrcMAC: macA, DstMAC: macB, EthernetType: pkt.EthernetTypeARP}
	frame, _ := pkt.Serialize(pkt.SerializeOptions{}, eth, arp)
	res, err := left.Process(IPsecPortPlain, frame)
	if err != nil || len(res.Emissions) != 0 {
		t.Errorf("ARP should be silently dropped, got %+v, %v", res, err)
	}
	if _, err := left.Process(9, frame); err == nil {
		t.Error("bad port accepted")
	}
}

func TestIPsecFromConfig(t *testing.T) {
	proc, err := NewIPsecFromConfig(map[string]string{
		"local":  "192.0.2.1",
		"remote": "203.0.113.9",
		"spi":    "4096",
		"key":    "000102030405060708090a0b0c0d0e0f10111213",
	})
	if err != nil {
		t.Fatal(err)
	}
	g := proc.(*IPsec)
	if g.SADB().Len() != 1 {
		t.Error("SA not installed from config")
	}
	// Missing keys must fail.
	for _, missing := range []string{"local", "remote", "spi", "key"} {
		cfg := map[string]string{
			"local":  "192.0.2.1",
			"remote": "203.0.113.9",
			"spi":    "4096",
			"key":    "000102030405060708090a0b0c0d0e0f10111213",
		}
		delete(cfg, missing)
		if _, err := NewIPsecFromConfig(cfg); err == nil {
			t.Errorf("config without %q accepted", missing)
		}
	}
	if _, err := NewIPsecFromConfig(map[string]string{
		"local": "x", "remote": "203.0.113.9", "spi": "1", "key": "000102030405060708090a0b0c0d0e0f10111213",
	}); err == nil {
		t.Error("bad local accepted")
	}
	if _, err := NewIPsecFromConfig(map[string]string{
		"local": "192.0.2.1", "remote": "203.0.113.9", "spi": "zebra", "key": "000102030405060708090a0b0c0d0e0f10111213",
	}); err == nil {
		t.Error("bad spi accepted")
	}
}

func TestESPOverheadConstant(t *testing.T) {
	tx := newSA(t, 0x600)
	inner := innerPacket(t, 1000)
	outer, _ := tx.Encapsulate(inner)
	if len(outer) > len(inner)+espOverhead {
		t.Errorf("overhead %d exceeds documented bound %d", len(outer)-len(inner), espOverhead)
	}
}

// espGolden are encapsulations recorded from the Serialize-based encoder
// this package used before ESP was sealed in one pooled frame: the same SA
// and sequence numbers must still give these exact bytes. The gateway
// frames carry inner packets of 28–31 bytes, so every pad length (2, 1, 0,
// 3) appears.
var espGolden = struct{ gateway, sa []string }{
	gateway: []string{
		"02000000000b02000000000a0800450000540000000040327c6dc0000201cb007109000010000000000100000000000000011b46fa8dbb142e167f96cb821084f2e7db90537f87a675649b44192b43fabb5f7c678a720c1aefd854296ceef3babc12",
		"02000000000b02000000000a0800450000540000000040327c6dc0000201cb007109000010000000000200000000000000023d35c059c3ed0fd0b107a85cd29aa4162d88dd3bb9eb2d35a7dd34459b84f79010bbd79d04c87d7177f87b1db2f4bc40",
		"02000000000b02000000000a0800450000540000000040327c6dc0000201cb007109000010000000000300000000000000032ad21d4e3e14f680a565235aee870ca76ac51d5acd5948d5cf0034bb26e46a21bab6869571f4e8854ec3594d7420bc4c",
		"02000000000b02000000000a0800450000580000000040327c69c0000201cb00710900001000000000040000000000000004122b6555c04fc9204a2aa41ce9c9c82f38822222ab8c1a48ec1b7efd5dfde305145012e9331fd7e9da2a4e7ff2590610c4cb288c",
	},
	sa: []string{
		"450000580000000040327c69c0000201cb0071090000002a0000000100000000000000011b46fab0bb142e167f96cb871084f2e7db90537f1fb16e439b41f52e18a2e301ad6b3ec49a7ce964d388fb58867d24530a210aec",
		"450000580000000040327c69c0000201cb0071090000002a0000000200000000000000023d35c066c3ed0fd0b107a85bd29aa4162d88dd3b21fc3612a7da3ef1b6dfaccee72c8c08e6635efa39e9903ce154b56914774b3c",
	},
}

func TestESPEncapGolden(t *testing.T) {
	left, _ := gatewayPair(t)
	for n, want := range espGolden.gateway {
		frame := pkt.MustBuildFrame(pkt.FrameSpec{
			SrcMAC: macA, DstMAC: macB, SrcIP: ipA, DstIP: ipB,
			SrcPort: 40000, DstPort: 5001, PayloadLen: n, PayloadByte: 0x77,
		})
		res, err := left.Process(IPsecPortPlain, frame)
		if err != nil {
			t.Fatal(err)
		}
		if got := hex.EncodeToString(res.Emissions[0].Frame); got != want {
			t.Errorf("gateway seq %d:\n got %s\nwant %s", n+1, got, want)
		}
	}
	sa := newSA(t, 0x2a)
	for n, want := range espGolden.sa {
		outer, err := sa.Encapsulate(innerPacket(t, 5+n))
		if err != nil {
			t.Fatal(err)
		}
		if got := hex.EncodeToString(outer); got != want {
			t.Errorf("SA seq %d:\n got %s\nwant %s", n+1, got, want)
		}
	}
}

// TestESPSealOpenRoundTrip seals and opens inner packets of every length
// from 20 to 2100 bytes, alone and behind the gateways' Ethernet framing:
// that covers every pad length, and frames past pkt.FrameBufferSize, which
// the pool does not serve.
func TestESPSealOpenRoundTrip(t *testing.T) {
	tx, rx := newSA(t, 0x700), newSA(t, 0x700)
	left, right := gatewayPair(t)
	r := rand.New(rand.NewSource(1))
	for n := 20; n <= 2100; n++ {
		inner := make([]byte, n)
		r.Read(inner)
		outer, err := tx.Encapsulate(inner)
		if err != nil {
			t.Fatal(err)
		}
		if len(outer)-len(inner) > espOverhead || (len(outer)-pkt.IPv4HeaderLen)%4 != 0 {
			t.Fatalf("inner %d: outer %d bytes: overhead above %d or ESP not 4-byte aligned", n, len(outer), espOverhead)
		}
		got, err := rx.Decapsulate(outer)
		if err != nil || !bytes.Equal(got, inner) {
			t.Fatalf("inner %d: SA round trip failed: %v", n, err)
		}

		frame := append(make([]byte, pkt.EthernetHeaderLen), inner...)
		hdr := pkt.Ethernet{SrcMAC: macA, DstMAC: macB, EthernetType: pkt.EthernetTypeIPv4}
		hdr.PutHeader(frame)
		enc, err := left.Process(IPsecPortPlain, frame)
		if err != nil {
			t.Fatal(err)
		}
		dec, err := right.Process(IPsecPortEncrypted, enc.Emissions[0].Frame)
		if err != nil || len(dec.Emissions) != 1 || !bytes.Equal(dec.Emissions[0].Frame[pkt.EthernetHeaderLen:], inner) {
			t.Fatalf("inner %d: gateway round trip failed: %v", n, err)
		}
		if dec.CryptoBytes != n {
			t.Fatalf("inner %d: decap reports %d crypto bytes", n, dec.CryptoBytes)
		}
	}
}
