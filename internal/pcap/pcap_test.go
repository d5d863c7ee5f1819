package pcap

import (
	"bytes"
	"io"
	"testing"
	"testing/quick"
	"time"
)

func TestWriteReadRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	ts := time.Unix(1700000000, 123456000)
	frames := [][]byte{
		{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 0x08, 0x00, 0xaa},
		{0xff, 0xee},
		make([]byte, 1500),
	}
	for i, f := range frames {
		if err := w.WritePacket(ts.Add(time.Duration(i)*time.Second), f); err != nil {
			t.Fatal(err)
		}
	}
	if w.Packets() != 3 {
		t.Errorf("packets = %d", w.Packets())
	}

	r := NewReader(bytes.NewReader(buf.Bytes()))
	got, err := r.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if r.linkType != LinkTypeEthernet {
		t.Errorf("link type = %d", r.linkType)
	}
	if len(got) != 3 {
		t.Fatalf("read %d packets", len(got))
	}
	for i, p := range got {
		if !bytes.Equal(p.Data, frames[i]) {
			t.Errorf("packet %d data mismatch", i)
		}
		if p.OrigLen != len(frames[i]) {
			t.Errorf("packet %d origlen = %d", i, p.OrigLen)
		}
		want := ts.Add(time.Duration(i) * time.Second)
		if p.Timestamp.Unix() != want.Unix() {
			t.Errorf("packet %d ts = %v", i, p.Timestamp)
		}
		// Microsecond resolution.
		if p.Timestamp.Nanosecond()/1000 != want.Nanosecond()/1000 {
			t.Errorf("packet %d usec = %d", i, p.Timestamp.Nanosecond())
		}
	}
}

func TestSnapLongPackets(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	big := make([]byte, DefaultSnapLen+100)
	big[0] = 0x42
	if err := w.WritePacket(time.Now(), big); err != nil {
		t.Fatal(err)
	}
	got, err := NewReader(bytes.NewReader(buf.Bytes())).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(got[0].Data) != DefaultSnapLen {
		t.Errorf("capLen = %d", len(got[0].Data))
	}
	if got[0].OrigLen != DefaultSnapLen+100 {
		t.Errorf("origLen = %d", got[0].OrigLen)
	}
}

func TestReaderErrors(t *testing.T) {
	// Bad magic.
	bad := make([]byte, 24)
	if _, err := NewReader(bytes.NewReader(bad)).ReadPacket(); err == nil {
		t.Error("bad magic accepted")
	}
	// Truncated record.
	var buf bytes.Buffer
	w := NewWriter(&buf)
	_ = w.WritePacket(time.Now(), []byte{1, 2, 3})
	trunc := buf.Bytes()[:buf.Len()-2]
	r := NewReader(bytes.NewReader(trunc))
	if _, err := r.ReadPacket(); err == nil {
		t.Error("truncated body accepted")
	}
	// Empty stream: EOF on first read (header missing).
	if _, err := NewReader(bytes.NewReader(nil)).ReadPacket(); err != io.EOF {
		t.Errorf("empty stream err = %v", err)
	}
}

func TestPropertyAnyPayloadRoundTrips(t *testing.T) {
	f := func(payloads [][]byte) bool {
		var buf bytes.Buffer
		w := NewWriter(&buf)
		for _, p := range payloads {
			if len(p) > DefaultSnapLen {
				p = p[:DefaultSnapLen]
			}
			if err := w.WritePacket(time.Unix(1, 0), p); err != nil {
				return false
			}
		}
		got, err := NewReader(bytes.NewReader(buf.Bytes())).ReadAll()
		if err != nil || len(got) != len(payloads) {
			return len(payloads) == 0 && err == nil
		}
		for i := range payloads {
			want := payloads[i]
			if len(want) > DefaultSnapLen {
				want = want[:DefaultSnapLen]
			}
			if !bytes.Equal(got[i].Data, want) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
