// Package jsonw writes and reads JSON on the deploy path, in one pass and
// without reflection, by schema tables: each wire object is declared once,
// as a []Field[T] over its model type, and ReadObject and WriteObject both
// run from that declaration (schema.go). What it writes is replicated,
// stored and compared, so it is byte-identical to what encoding/json wrote
// before: strings escaped HTML-safe as encoding/json escapes them (<, >, &,
// U+2028 and U+2029 as \u escapes, invalid UTF-8 as the escape \ufffd),
// floats by its 'f'/'e' rule, map keys sorted. Encode writes a table once,
// into a buffer its Writers keep between calls, and copies the result out
// at its exact length, so it allocates its output once. A Reader reads what
// json.Valid accepts.
package jsonw

import (
	"fmt"
	"math"
	"strconv"
	"unicode/utf8"
)

// Writer appends JSON text to a buffer. The first failure (an unencodable
// value) sticks and is reported by Err.
type Writer struct {
	buf []byte
	err error
	// key is the pending member's key, written (after a comma when comma
	// is set) with the first byte of its value: a value that writes
	// nothing leaves its member out.
	key   string
	comma bool
}

// Appending returns a Writer that appends to b.
func Appending(b []byte) Writer { return Writer{buf: b} }

// Len is the number of bytes written so far.
func (w *Writer) Len() int { return len(w.buf) }

// Bytes is the buffer written so far.
func (w *Writer) Bytes() []byte { return w.buf }

// Err is the first failure recorded by Fail or Float.
func (w *Writer) Err() error { return w.err }

// Fail records err unless a failure is already recorded.
func (w *Writer) Fail(err error) {
	if w.err == nil {
		w.err = err
	}
}

// member writes the pending member's key, if there is one: every write
// starts here.
func (w *Writer) member() {
	if w.key != "" {
		w.writeKey(w.key, w.comma)
		w.key = ""
	}
}

// writeKey writes a member's key, after a comma if comma is set.
func (w *Writer) writeKey(key string, comma bool) {
	open := `"`
	if comma {
		open = `,"`
	}
	w.buf = append(append(append(w.buf, open...), key...), `":`...)
}

// Raw writes s as it is: punctuation and keys the caller knows are valid.
// An empty s writes nothing, not even a pending member's key.
func (w *Writer) Raw(s string) {
	if len(s) == 0 {
		return
	}
	w.member()
	w.buf = append(w.buf, s...)
}

// Verbatim writes b as it is: JSON text the caller knows is valid. An
// empty b writes nothing, so a member whose value is empty is left out.
func (w *Writer) Verbatim(b []byte) {
	if len(b) == 0 {
		return
	}
	w.member()
	w.buf = append(w.buf, b...)
}

// Byte writes c as it is.
func (w *Writer) Byte(c byte) {
	w.member()
	w.buf = append(w.buf, c)
}

// String writes s as a quoted JSON string.
func (w *Writer) String(s string) {
	w.Byte('"')
	w.Escaped(s)
	w.Byte('"')
}

// Escaped writes the body of a JSON string, without quotes, as
// encoding/json escapes it. Strings joined by ASCII separators escape to
// the concatenation of their escapes: no UTF-8 sequence spans an ASCII byte.
func (w *Writer) Escaped(s string) {
	start := 0
	for i := 0; i < len(s); {
		c := s[i]
		if c < utf8.RuneSelf {
			if c >= 0x20 && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			w.Raw(s[start:i])
			switch c {
			case '"', '\\':
				w.Byte('\\')
				w.Byte(c)
			case '\b':
				w.Raw(`\b`)
			case '\f':
				w.Raw(`\f`)
			case '\n':
				w.Raw(`\n`)
			case '\r':
				w.Raw(`\r`)
			case '\t':
				w.Raw(`\t`)
			default:
				w.Raw(`\u00`)
				w.Byte(hex[c>>4])
				w.Byte(hex[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			w.Raw(s[start:i])
			w.Raw(`\ufffd`)
		case r == '\u2028' || r == '\u2029':
			w.Raw(s[start:i])
			w.Raw(`\u202`)
			w.Byte(hex[r&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	w.Raw(s[start:])
}

const hex = "0123456789abcdef"

// Int writes v in decimal.
func (w *Writer) Int(v int64) {
	var a [20]byte
	w.Verbatim(strconv.AppendInt(a[:0], v, 10))
}

// Uint writes v in decimal.
func (w *Writer) Uint(v uint64) {
	var a [20]byte
	w.Verbatim(strconv.AppendUint(a[:0], v, 10))
}

// Float writes f as encoding/json writes a float64: the shortest 'f' form,
// or 'e' below 1e-6 and from 1e21 on, with a one-digit negative exponent
// unpadded. NaN and the infinities have no JSON form and fail the Writer.
func (w *Writer) Float(f float64) {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		w.Fail(fmt.Errorf("jsonw: unsupported value: %v", f))
		return
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	var a [32]byte
	b := strconv.AppendFloat(a[:0], f, format, -1, 64)
	if n := len(b); format == 'e' && n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
		b[n-2] = b[n-1]
		b = b[:n-1]
	}
	w.Verbatim(b)
}

// StringMap writes m as an object with its keys in order, as encoding/json
// writes a map[string]string; a nil map is null.
func (w *Writer) StringMap(m map[string]string) { WriteMap(w, m, (*Writer).String) }
