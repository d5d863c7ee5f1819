package jsonw

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"
)

// FuzzWriterMatchesEncodingJSON: a string, a float and a string map written
// by hand are byte for byte what encoding/json writes. Seeds cover every
// escape class.
func FuzzWriterMatchesEncodingJSON(f *testing.F) {
	for _, s := range []string{
		"", "plain", `"quoted" \back\`, "<script>&amp;</script>", "\b\f\n\r\t\x00\x1f\x7f",
		"line\u2028para\u2029", "bad \xff utf8 \xe2\x80", "é日本語🙂", "\xed\xa0\x80",
	} {
		f.Add(s, 0.999)
	}
	for _, v := range []float64{0, math.Copysign(0, -1), 1, 0.5, 1e-6, 9.99e-7, 1e20, 1e21, -1e21, 1.5e-9, 123456789.125, math.SmallestNonzeroFloat64, math.MaxFloat64} {
		f.Add("k", v)
	}
	f.Fuzz(func(t *testing.T, s string, v float64) {
		m := map[string]string{s: s + "<", "z" + s: "", "": s}
		encode := func(w *Writer) {
			w.Byte('[')
			w.String(s)
			w.Byte(',')
			w.Float(v)
			w.Byte(',')
			w.StringMap(m)
			w.Byte(',')
			w.StringMap(nil)
			w.Byte(',')
			w.Int(int64(len(s)) - 3)
			w.Byte(',')
			w.Uint(uint64(len(s)))
			w.Byte(']')
		}
		want, wantErr := json.Marshal([]any{s, v, m, map[string]string(nil), len(s) - 3, uint(len(s))})
		w := Appending(nil)
		encode(&w)
		if (wantErr != nil) != (w.Err() != nil) {
			t.Fatalf("errors differ: encoding/json %v, writer %v", wantErr, w.Err())
		}
		if wantErr != nil {
			return
		}
		if !bytes.Equal(w.Bytes(), want) {
			t.Fatalf("bytes differ:\nwriter        %s\nencoding/json %s", w.Bytes(), want)
		}
	})
}
