package pkt

import (
	"encoding/binary"
	"fmt"
)

// ESPHeaderLen is the length of the cleartext ESP header (SPI + sequence
// number). The payload that follows is ciphertext terminated by an ICV, both
// opaque at this layer.
const ESPHeaderLen = 8

// ESP is an IPsec Encapsulating Security Payload header (RFC 4303). Only the
// cleartext prefix is decoded; decryption is performed by the IPsec network
// function, not the packet library.
type ESP struct {
	SPI uint32
	Seq uint32

	contents, payload []byte
}

// LayerType implements Layer.
func (e *ESP) LayerType() LayerType { return LayerTypeESP }

// LayerContents implements Layer.
func (e *ESP) LayerContents() []byte { return e.contents }

// LayerPayload implements Layer; the payload is ciphertext plus ICV.
func (e *ESP) LayerPayload() []byte { return e.payload }

// DecodeFromBytes parses the ESP cleartext header in place.
func (e *ESP) DecodeFromBytes(data []byte) error {
	if len(data) < ESPHeaderLen {
		return fmt.Errorf("pkt: esp header too short: %d bytes", len(data))
	}
	e.SPI = binary.BigEndian.Uint32(data[0:4])
	e.Seq = binary.BigEndian.Uint32(data[4:8])
	e.contents = data[:ESPHeaderLen]
	e.payload = data[ESPHeaderLen:]
	return nil
}

// NextLayerType returns LayerTypePayload: everything after the header is
// opaque ciphertext.
func (e *ESP) NextLayerType() LayerType { return LayerTypePayload }

// SerializeTo implements SerializableLayer.
func (e *ESP) SerializeTo(b *SerializeBuffer, _ SerializeOptions) error {
	bytes, err := b.PrependBytes(ESPHeaderLen)
	if err != nil {
		return err
	}
	e.PutHeader(bytes)
	return nil
}

// PutHeader writes the cleartext header into b[:ESPHeaderLen].
func (e *ESP) PutHeader(b []byte) {
	binary.BigEndian.PutUint32(b[0:4], e.SPI)
	binary.BigEndian.PutUint32(b[4:8], e.Seq)
}
