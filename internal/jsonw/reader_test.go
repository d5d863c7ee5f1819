package jsonw

import (
	"bytes"
	"encoding/json"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// FuzzReaderMatchesEncodingJSON: the Reader accepts a document exactly when
// json.Valid does, and reads every scalar kind (string, int64, uint16,
// float64, bool), an object key and an element count exactly as
// encoding/json decodes them: both accept or both refuse, and what both
// accept is equal. Seeds cover every escape class, each literal and number
// form (TestReaderDepthLimit covers the nesting limit: the fuzzer would spend
// its time minimizing a seed that deep).
func FuzzReaderMatchesEncodingJSON(f *testing.F) {
	for _, s := range []string{
		``, ` `, `null`, `true`, `false`, `nul`, `tru`, `0`, `-0`, `01`, `-`, `1.`, `1.5`, `1e2`, `1E+2`, `1e-`, `-12`,
		`65535`, `65536`, `9223372036854775807`, `9223372036854775808`, `-9223372036854775808`, `18446744073709551616`, `1e400`,
		`""`, `"plain"`, `"\"\\\/\b\f\n\r\t"`, `"é "`, `"😀"`, `"\ud83d"`, `"\ude00\ud83d x"`, `"\uZZZZ"`,
		`"\'"`, "\"\x01\"", "\"\xff\xfe\"", "\"\xed\xa0\x80\"", `"unterminated`, `[]`, `[1,2,[3,{}]]`, `[1,]`, `[,1]`, `[1 2]`,
		`{}`, `{"a":1,"b":[true,null],"a":"x"}`, `{"a":1,}`, `{,"a":1}`, `{"a" 1}`, `{1:2}`, `{"a":}`, " \t\n\r[ ] ", `[] x`, `{}}`,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		r := Reading(data)
		r.Raw()
		if got, want := r.Err() == nil && r.Done(), json.Valid(data); got != want {
			t.Fatalf("reader accepts %q: %v (err %v), json.Valid: %v", data, got, r.Err(), want)
		}
		checkScalar(t, data, "String", (*Reader).Str)
		checkScalar(t, data, "Int", func(r *Reader) int64 { return r.Int(64) })
		checkScalar(t, data, "Uint", func(r *Reader) uint16 { return uint16(r.Uint(16)) })
		checkScalar(t, data, "Float", (*Reader).Float)
		checkScalar(t, data, "Bool", (*Reader).Bool)

		if !json.Valid(data) {
			return
		}
		switch bytes.TrimLeft(data, " \t\n\r")[0] {
		case '"':
			doc := append(append([]byte("{"), data...), ":0}"...)
			var m map[string]int
			if err := json.Unmarshal(doc, &m); err != nil {
				t.Fatal(err)
			}
			r := Reading(doc)
			r.Object()
			key, ok := r.Key()
			if _, in := m[string(key)]; !ok || !in || len(m) != 1 {
				t.Fatalf("key of %s read as %q, encoding/json %v (err %v)", doc, key, m, r.Err())
			}
		case '[':
			var elems []json.RawMessage
			if err := json.Unmarshal(data, &elems); err != nil {
				t.Fatal(err)
			}
			r := Reading(data)
			n := r.Count()
			read := 0
			for r.Array(); r.Next(); read++ {
				if !bytes.Equal(r.Raw(), elems[read]) {
					t.Fatalf("element %d of %s read as %s, encoding/json %s", read, data, r.Raw(), elems[read])
				}
			}
			if n != len(elems) || read != len(elems) || !r.Done() {
				t.Fatalf("%s: counted %d, read %d, encoding/json %d (err %v)", data, n, read, len(elems), r.Err())
			}
		case '{':
			r := Reading(data)
			n := r.Count()
			read := 0
			for r.Object(); ; read++ {
				if _, ok := r.Key(); !ok {
					break
				}
				r.Raw()
			}
			if n != read || !r.Done() {
				t.Fatalf("%s: counted %d members, read %d (err %v)", data, n, read, r.Err())
			}
		}
	})
}

// checkScalar reads data as one value with read and as a T with
// json.Unmarshal: both accept it or neither does, and the values agree.
func checkScalar[T comparable](t *testing.T, data []byte, name string, read func(*Reader) T) {
	t.Helper()
	var want T
	wantErr := json.Unmarshal(data, &want)
	r := Reading(data)
	got := read(&r)
	ok := r.Err() == nil && r.Done()
	if ok != (wantErr == nil) || ok && got != want {
		t.Fatalf("%s of %q = %v (err %v, done %v); encoding/json %v (err %v)", name, data, got, r.Err(), r.Done(), want, wantErr)
	}
}

// TestReadObject: ReadObject matches keys exactly, refuses an unknown or a
// repeated one by name, and the Reader names the member a type error is in.
func TestReadObject(t *testing.T) {
	type pair struct {
		id string
		n  int64
	}
	schema := []Field[pair]{
		{Key: "id", Read: func(r *Reader, p *pair) { p.id = r.Str() }},
		{Key: "n", Read: func(r *Reader, p *pair) { p.n = r.Int(strconv.IntSize) }},
	}
	for doc, want := range map[string]string{
		`{"id":"a","n":3}`:    "",
		`{"ID":"a"}`:          `json: unknown field "ID"`,
		`{"id":"a","id":"b"}`: `json: repeated field "id"`,
		`{"n":"3"}`:           "json: cannot unmarshal string into Go struct field n of type int",
		`{"n":[1]}`:           "json: cannot unmarshal array into Go struct field n of type int",
		`{"n":70000}`:         "",
		`{"n":1.5}`:           "json: cannot unmarshal number 1.5 into Go struct field n of type int",
		`{"id":"a","n":null}`: "",
		`null`:                "",
	} {
		r := Reading([]byte(doc))
		var p pair
		ReadObject(&r, schema, &p)
		got := ""
		if r.Err() != nil {
			got = r.Err().Error()
		}
		if got != want || want == "" && !r.Done() {
			t.Errorf("%s: err %q, want %q", doc, got, want)
		}
	}
}

// TestReaderDepthLimit: like json.Valid, the Reader takes 10000 nested
// arrays or objects and refuses 10001, counting the levels a caller opened
// before a Raw read.
func TestReaderDepthLimit(t *testing.T) {
	for _, depth := range []int{10000, 10001} {
		for _, level := range [][2]string{{"[", "]"}, {`{"":`, "}"}} {
			doc := []byte(strings.Repeat(level[0], depth-1) + "[]" + strings.Repeat(level[1], depth-1))
			r := Reading(doc)
			r.Raw()
			if got, want := r.Err() == nil && r.Done(), json.Valid(doc); got != want || want != (depth <= 10000) {
				t.Errorf("depth %d of %s: reader %v (err %v), json.Valid %v", depth, level[0], got, r.Err(), want)
			}
		}
		doc := []byte(`{"a":[` + strings.Repeat("[", depth-2) + strings.Repeat("]", depth-2) + `]}`)
		r := Reading(doc)
		r.Object()
		r.Key()
		r.Array()
		r.Next()
		if raw := r.Raw(); (raw != nil) != json.Valid(doc) {
			t.Errorf("depth %d under two open levels: Raw %v (err %v), json.Valid %v", depth, raw != nil, r.Err(), json.Valid(doc))
		}
	}
}

// TestEncodeDecodeConcurrently: Encode and Decode lend their Writers and
// Readers out of one shared store; goroutines encoding and decoding at
// once each get their own and read back what they wrote.
func TestEncodeDecodeConcurrently(t *testing.T) {
	type pair struct {
		id string
		n  int
	}
	schema := []Field[pair]{
		{Key: "id", At: func(p *pair) any { return &p.id }},
		{Key: "n", Omit: true, At: func(p *pair) any { return &p.n }},
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				want := pair{id: strconv.Itoa(g), n: i}
				data, err := Encode(schema, &want)
				var got pair
				if err == nil {
					err = Decode(data, schema, &got)
				}
				if err != nil || got != want {
					t.Errorf("goroutine %d: %s decodes to %+v (err %v), want %+v", g, data, got, err, want)
					return
				}
			}
		}()
	}
	wg.Wait()
}
