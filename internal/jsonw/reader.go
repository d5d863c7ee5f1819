package jsonw

import (
	"encoding/json"
	"fmt"
	"strconv"
	"strings"
	"unicode/utf8"
)

// Reader reads one JSON document from a byte slice, value by value, in one
// pass and without reflection: ReadObject, or Object and Key, for an
// object's members, Array and Next for an array's elements, Str, Int,
// Uint, Float and Bool for scalars, Raw for a value kept as its bytes or
// read past. It accepts exactly what json.Valid accepts and reads each
// scalar as encoding/json reads it into a field of that type, null (the
// zero value) included. The first failure sticks: Err reports it, with the
// message encoding/json gives a malformed document, and every later read
// returns the zero value.
type Reader struct {
	data       []byte
	pos, depth int
	open       bool // an object or array just opened: no comma before its first member
	err        error
	last, key  []byte // the key of the member being read, for type errors; a key that was unescaped
	field      string // the table key of the member ReadObject is reading, for a map's errors
	// State is the caller's: what the Read funcs of its tables share over
	// one document beyond the value each fills.
	State any
}

// Reading returns a Reader at the start of data.
func Reading(data []byte) Reader { return Reader{data: data} }

// Err is the first failure.
func (r *Reader) Err() error { return r.err }

// Fail records err unless a failure is already recorded.
func (r *Reader) Fail(err error) {
	if r.err == nil {
		r.err = err
	}
}

// Done reports whether nothing but white space follows what was read.
func (r *Reader) Done() bool { return r.err == nil && r.peek() == 0 && r.pos == len(r.data) }

// peek skips white space and returns the next byte, or 0 at the end.
func (r *Reader) peek() byte {
	for ; r.pos < len(r.data); r.pos++ {
		if c := r.data[r.pos]; c != ' ' && c != '\t' && c != '\n' && c != '\r' {
			return c
		}
	}
	return 0
}

// syntax fails the reader with the error encoding/json gives the document.
func (r *Reader) syntax() {
	if err := json.Unmarshal(r.data, new(json.RawMessage)); err != nil {
		r.Fail(err)
	} else {
		r.Fail(fmt.Errorf("jsonw: unexpected JSON at offset %d", r.pos))
	}
}

// Object opens an object and reports true, or reads a null and reports
// false; anything else fails the reader.
func (r *Reader) Object() bool { return r.enter('{', "object") }

// Array is Object for an array.
func (r *Reader) Array() bool { return r.enter('[', "array") }

func (r *Reader) enter(open byte, want string) bool {
	if r.err != nil || r.peek() != open {
		r.token("", want)
		return false
	}
	if r.depth++; r.depth > 10000 { // encoding/json's nesting limit
		r.syntax()
		return false
	}
	r.pos++
	r.open = true
	return true
}

// more consumes the closing byte of the object or array being read and
// reports false, or the comma before its next member and reports true.
func (r *Reader) more(close byte) bool {
	switch c := r.peek(); {
	case r.err != nil:
		return false
	case c == close:
		r.pos++
		r.depth--
		r.open = false
		return false
	case r.open:
		r.open = false
		return true
	case c == ',':
		r.pos++
		return true
	}
	r.syntax()
	return false
}

// Next reports whether the array being read has another element.
func (r *Reader) Next() bool { return r.more(']') }

// Key reads the next member's key and colon and returns the key, decoded
// and valid until the next read, or reports false at the object's end.
func (r *Reader) Key() ([]byte, bool) {
	r.last = nil
	if !r.more('}') {
		return nil, false
	}
	if r.peek() != '"' {
		r.syntax()
		return nil, false
	}
	tok := r.Raw()
	if tok == nil {
		return nil, false
	}
	key := tok[1 : len(tok)-1]
	if _, plain := scanString(tok); !plain {
		var s string
		_ = json.Unmarshal(tok, &s) // Raw found it valid
		r.key = append(r.key[:0], s...)
		key = r.key
	}
	if r.peek() != ':' {
		r.syntax()
		return nil, false
	}
	r.pos++
	r.last = key
	return key, true
}

// kinds names a JSON value by its first byte, for type errors.
var kinds = map[byte]string{'{': "object", '[': "array", '"': "string", 't': "bool", 'f': "bool"}

// token reads the next value and returns it if it starts with a byte in
// first; nil for null, and on failure, as a type error against want.
func (r *Reader) token(first, want string) []byte {
	c, last := r.peek(), r.last
	tok := r.Raw()
	switch r.last = last; {
	case tok == nil || string(tok) == "null":
		return nil
	case strings.IndexByte(first, c) >= 0:
		return tok
	}
	found, ok := kinds[c]
	if !ok {
		found = "number"
	}
	r.typeError(found, want)
	return nil
}

// typeError fails the reader as encoding/json does a mismatched field.
func (r *Reader) typeError(found, want string) {
	if r.last != nil {
		r.Fail(fmt.Errorf("json: cannot unmarshal %s into Go struct field %s of type %s", found, r.last, want))
	} else {
		r.Fail(fmt.Errorf("json: cannot unmarshal %s into Go value of type %s", found, want))
	}
}

// Str reads a string, or a null as "".
func (r *Reader) Str() string {
	tok := r.token(`"`, "string")
	if tok == nil {
		return ""
	}
	if _, plain := scanString(tok); plain {
		return string(tok[1 : len(tok)-1])
	}
	var s string
	_ = json.Unmarshal(tok, &s) // Raw found it valid
	return s
}

// Bool reads true or false, or a null as false.
func (r *Reader) Bool() bool { return string(r.token("tf", "bool")) == "true" }

// Int reads an integer that fits bits bits, or a null as 0; a fraction,
// an exponent or a value out of range fails the reader.
func (r *Reader) Int(bits int) int64 {
	tok := r.token("-0123456789", "int")
	v, err := strconv.ParseInt(string(tok), 10, bits)
	return ranged(r, tok, v, err, "int", bits)
}

// Uint reads an unsigned integer that fits bits bits, or a null as 0.
func (r *Reader) Uint(bits int) uint64 {
	tok := r.token("-0123456789", "uint")
	v, err := strconv.ParseUint(string(tok), 10, bits)
	return ranged(r, tok, v, err, "uint", bits)
}

// Float reads a float64, or a null as 0.
func (r *Reader) Float() float64 {
	tok := r.token("-0123456789", "float")
	v, err := strconv.ParseFloat(string(tok), 64)
	return ranged(r, tok, v, err, "float", 64)
}

// ranged returns v, parsed from tok, or 0 when tok is null or err says it
// does not fit the Go type of kind and size bits.
func ranged[T int64 | uint64 | float64](r *Reader, tok []byte, v T, err error, kind string, bits int) T {
	if tok == nil || err != nil {
		if tok != nil {
			if kind != "int" || bits != strconv.IntSize {
				kind += strconv.Itoa(bits)
			}
			r.typeError("number "+string(tok), kind)
		}
		return 0
	}
	return v
}

// Raw reads one value of any kind, checking its grammar, and returns it as
// written: a sub-slice of the document, capped so that appending copies.
func (r *Reader) Raw() []byte {
	if r.err != nil {
		return nil
	}
	c := r.peek()
	start, end := r.pos, r.pos
	switch c {
	case '{':
		r.enter('{', "")
		for _, ok := r.Key(); ok; _, ok = r.Key() {
			r.Raw()
		}
		end = r.pos
	case '[':
		for r.enter('[', ""); r.Next(); {
			r.Raw()
		}
		end = r.pos
	case '"':
		end = stringEnd(r.data, start)
	default:
		for end < len(r.data) && strings.IndexByte(" \t\n\r,:[]{}\"", r.data[end]) < 0 {
			end++
		}
	}
	tok := r.data[start:max(end, start)]
	if valid, _ := scanString(tok); c != '{' && c != '[' && !valid && !isNumber(tok) &&
		string(tok) != "true" && string(tok) != "false" && string(tok) != "null" {
		r.syntax()
	}
	if r.err != nil {
		return nil
	}
	r.pos, r.open = end, false
	return tok[:len(tok):len(tok)]
}

// stringEnd returns the end of the string opening at data[i], or -1.
func stringEnd(data []byte, i int) int {
	for i++; i < len(data); i++ {
		switch data[i] {
		case '"':
			return i + 1
		case '\\':
			i++
		}
	}
	return -1
}

// scanString reports whether tok is a JSON string, and whether its body is
// its value (no escape, valid UTF-8).
func scanString(tok []byte) (valid, plain bool) {
	if len(tok) < 2 || tok[0] != '"' || tok[len(tok)-1] != '"' {
		return false, false
	}
	plain = true
	for i := 1; i < len(tok)-1; i++ {
		switch c := tok[i]; {
		case c < 0x20:
			return false, false
		case c == '\\':
			plain = false
			if i++; tok[i] != 'u' {
				if strings.IndexByte(`"\/bfnrt`, tok[i]) < 0 {
					return false, false
				}
				continue
			}
			if i+4 >= len(tok)-1 {
				return false, false
			}
			for _, h := range tok[i+1 : i+5] {
				if strings.IndexByte("0123456789abcdefABCDEF", h) < 0 {
					return false, false
				}
			}
			i += 4
		}
	}
	return true, plain && utf8.Valid(tok[1:len(tok)-1])
}

// isNumber reports whether tok is a JSON number:
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?
func isNumber(tok []byte) bool {
	i := 0
	next := func(set string) bool {
		if i < len(tok) && strings.IndexByte(set, tok[i]) >= 0 {
			i++
			return true
		}
		return false
	}
	digits := func() bool {
		j := i
		for next("0123456789") {
		}
		return i > j
	}
	next("-")
	if !next("0") && !digits() || next(".") && !digits() {
		return false
	}
	if next("eE") {
		next("+-")
		if !digits() {
			return false
		}
	}
	return i == len(tok)
}

// Count returns how many elements the array, or members the object, next
// in the document holds, without reading it, so that a decoder can size a
// slice first. It counts top-level commas without checking the grammar, so
// it may miscount a malformed document, which reading then fails.
func (r *Reader) Count() int {
	if c := r.peek(); r.err != nil || c != '{' && c != '[' {
		return 0
	}
	i := r.pos + 1
	for i < len(r.data) && strings.IndexByte(" \t\n\r", r.data[i]) >= 0 {
		i++
	}
	if i < len(r.data) && (r.data[i] == '}' || r.data[i] == ']') {
		return 0
	}
	n, depth := 1, 1
	for ; i < len(r.data) && depth > 0; i++ {
		switch r.data[i] {
		case '"':
			i = stringEnd(r.data, i) - 1
		case '{', '[':
			depth++
		case '}', ']':
			depth--
		case ',':
			if depth == 1 {
				n++
			}
		}
		if i < 0 {
			break
		}
	}
	return n
}
