package jsonw

import (
	"errors"
	"fmt"
	"slices"
	"strconv"
	"sync"
)

// Field is one member of an object's schema, the one place its key, its
// order and its omitempty rule are declared: ReadObject and WriteObject both
// run from a table of them, in the order the members are written. A scalar
// member gives At, the address of its value: a *string, *int, *uint8,
// *uint16, *uint64, *float64, *[]string or *map[string]string, read and
// written as encoding/json reads and writes it; with Omit, a zero or empty
// value is left out, as omitempty leaves it out. Any other member gives
// Read and Write, and is left out when Write writes nothing.
type Field[T any] struct {
	Key   string
	Omit  bool
	At    func(*T) any
	Read  func(*Reader, *T)
	Write func(*Writer, *T)
}

// ReadObject reads an object into v, each member by the field of its key,
// and reports whether it was there (null is none). A key not among fields'
// (matched exactly), or seen twice, fails the reader. At most 64 fields.
func ReadObject[T any](r *Reader, fields []Field[T], v *T) bool {
	if !r.Object() {
		return false
	}
	var seen uint64
	for key, ok := r.Key(); ok; key, ok = r.Key() {
		i := 0
		for i < len(fields) && fields[i].Key != string(key) {
			i++
		}
		switch {
		case i == len(fields):
			r.Fail(fmt.Errorf("json: unknown field %q", key))
		case seen&(1<<i) != 0:
			r.Fail(fmt.Errorf("json: repeated field %q", key))
		default:
			seen |= 1 << i
			f := &fields[i]
			r.field = f.Key
			if f.At != nil {
				r.scalar(f.At(v))
			} else {
				f.Read(r, v)
			}
		}
	}
	return true
}

// WriteObject writes v as an object, member by member in the order of
// fields.
func WriteObject[T any](w *Writer, fields []Field[T], v *T) {
	w.Byte('{')
	start := w.Len()
	for i := range fields {
		f := &fields[i]
		w.key, w.comma = f.Key, w.Len() > start
		if f.At != nil {
			w.scalar(f.At(v), f.Omit)
		} else {
			f.Write(w, v)
		}
	}
	w.key = ""
	w.Byte('}')
}

// Encode writes v as an object by fields into a buffer of exactly its
// length: the fields are written once, into the buffer the lent Writer
// keeps, and copied out. The tables reach v through func values, so v
// escapes to the heap: a caller encoding a value of its own stack pays an
// allocation for it.
func Encode[T any](fields []Field[T], v *T) ([]byte, error) {
	w := writers.get()
	defer func() {
		if cap(w.buf) > maxKept {
			w.buf = nil
		}
		writers.put(w)
	}()
	*w = Appending(w.buf[:0])
	WriteObject(w, fields, v)
	if err := w.Err(); err != nil {
		return nil, err
	}
	out := make([]byte, len(w.buf))
	copy(out, w.buf)
	return out, nil
}

// Decode reads data, one object, into v by fields; anything but white
// space after the object is an error.
func Decode[T any](data []byte, fields []Field[T], v *T) error {
	r := readers.get()
	defer readers.put(r)
	*r = Reading(data)
	ReadObject(r, fields, v)
	err := r.Err()
	if err == nil && !r.Done() {
		err = errors.New("json: trailing data after the object")
	}
	*r = Reader{}
	return err
}

// The tables reach their Reader or Writer through func values, so it would
// escape to the heap at every Encode and Decode: these keep the ones lent.
var (
	writers spares[Writer]
	readers spares[Reader]
)

// spares keeps values between uses. Unlike a sync.Pool, which a garbage
// collection empties and whose first use after one allocates again, it
// keeps them for good: it holds at most as many as were ever lent at once.
type spares[T any] struct {
	mu   sync.Mutex
	free []*T
}

func (s *spares[T]) get() *T {
	s.mu.Lock()
	defer s.mu.Unlock()
	if n := len(s.free); n > 0 {
		v := s.free[n-1]
		s.free = s.free[:n-1]
		return v
	}
	return new(T)
}

func (s *spares[T]) put(v *T) {
	s.mu.Lock()
	s.free = append(s.free, v)
	s.mu.Unlock()
}

// maxKept bounds the buffer a lent Writer keeps: a larger one, written for
// a rare large value, is dropped rather than pinned for good.
const maxKept = 64 << 10

// ReadArray reads an array of objects by fields into a slice sized by its
// count, and hands each element to done, if it is not nil, once it is
// read. Null is nil and [] is empty, as encoding/json reads them.
func ReadArray[E any](r *Reader, fields []Field[E], done func(*Reader, *E)) []E {
	s := make([]E, r.Count())
	if !r.Array() {
		return nil
	}
	for i := 0; r.Next(); i++ {
		if i == len(s) {
			r.Fail(errors.New("json: malformed array")) // miscounted: malformed JSON
			return nil
		}
		ReadObject(r, fields, &s[i])
		if done != nil {
			done(r, &s[i])
		}
	}
	return s
}

// WriteArray writes s as an array of objects by fields, or nothing when s
// is empty, so that its member is left out as omitempty leaves it out.
func WriteArray[E any](w *Writer, fields []Field[E], s []E) {
	if len(s) == 0 {
		return
	}
	w.Byte('[')
	for i := range s {
		if i > 0 {
			w.Byte(',')
		}
		WriteObject(w, fields, &s[i])
	}
	w.Byte(']')
}

// ReadMap reads an object into a map sized by its member count, each value
// by read. Null is nil and {} is empty; a repeated key fails the reader.
func ReadMap[V any](r *Reader, read func(*Reader) V) map[string]V {
	n, field := r.Count(), r.field
	if !r.Object() {
		return nil
	}
	m := make(map[string]V, n)
	for key, ok := r.Key(); ok; key, ok = r.Key() {
		k := string(key) // before read reuses key's buffer
		if _, dup := m[k]; dup {
			r.Fail(fmt.Errorf("json: repeated %s key %q", field, k))
			return nil
		}
		m[k] = read(r)
	}
	return m
}

// WriteMap writes m as an object with its keys in order, each value by
// write, as encoding/json writes a map with string keys; a nil map is null.
func WriteMap[V any](w *Writer, m map[string]V, write func(*Writer, V)) {
	if m == nil {
		w.Raw("null")
		return
	}
	var a [16]string // a small map's keys stay off the heap
	keys := a[:0]
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	w.Byte('{')
	for i, k := range keys {
		if i > 0 {
			w.Byte(',')
		}
		w.String(k)
		w.Byte(':')
		write(w, m[k])
	}
	w.Byte('}')
}

// scalar reads the value p, one of Field.At's kinds, addresses.
func (r *Reader) scalar(p any) {
	switch p := p.(type) {
	case *string:
		*p = r.Str()
	case *int:
		*p = int(r.Int(strconv.IntSize))
	case *uint8:
		*p = uint8(r.Uint(8))
	case *uint16:
		*p = uint16(r.Uint(16))
	case *uint64:
		*p = r.Uint(64)
	case *float64:
		*p = r.Float()
	case *[]string:
		*p = nil
		if n := r.Count(); r.Array() {
			*p = make([]string, 0, n)
			for r.Next() {
				*p = append(*p, r.Str())
			}
		}
	case *map[string]string:
		*p = ReadMap(r, (*Reader).Str)
	default:
		panic(fmt.Sprintf("jsonw: no scalar kind %T", p))
	}
}

// scalar writes the value p, one of Field.At's kinds, addresses, or nothing
// when omit is set and the value is zero or empty.
func (w *Writer) scalar(p any, omit bool) {
	switch p := p.(type) {
	case *string:
		if !omit || *p != "" {
			w.String(*p)
		}
	case *int:
		if !omit || *p != 0 {
			w.Int(int64(*p))
		}
	case *uint8:
		if !omit || *p != 0 {
			w.Uint(uint64(*p))
		}
	case *uint16:
		if !omit || *p != 0 {
			w.Uint(uint64(*p))
		}
	case *uint64:
		if !omit || *p != 0 {
			w.Uint(*p)
		}
	case *float64:
		if !omit || *p != 0 {
			w.Float(*p)
		}
	case *[]string:
		switch {
		case *p == nil && !omit:
			w.Raw("null")
		case len(*p) > 0 || !omit:
			w.Byte('[')
			for i, s := range *p {
				if i > 0 {
					w.Byte(',')
				}
				w.String(s)
			}
			w.Byte(']')
		}
	case *map[string]string:
		if !omit || len(*p) > 0 {
			w.StringMap(*p)
		}
	default:
		panic(fmt.Sprintf("jsonw: no scalar kind %T", p))
	}
}
