// Package bincodec holds the primitives of the binary state images: varint
// integers (zigzag for signed values), length-prefixed byte strings, and a
// sticky-error reader that accepts only the canonical encoding of each value.
// Canonical means a decoded value re-encodes to exactly the bytes it was read
// from: varints must be minimal, so every image has one byte form and equal
// states have equal bytes — which the chunk store's content addressing and
// delta chains depend on.
package bincodec

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// AppendInt appends v as a zigzag varint.
func AppendInt(dst []byte, v int64) []byte { return binary.AppendVarint(dst, v) }

// AppendUint appends v as an unsigned varint.
func AppendUint(dst []byte, v uint64) []byte { return binary.AppendUvarint(dst, v) }

// AppendBool appends v as one byte, 0 or 1.
func AppendBool(dst []byte, v bool) []byte {
	if v {
		return append(dst, 1)
	}
	return append(dst, 0)
}

// AppendBytes appends b with an unsigned varint length prefix.
func AppendBytes(dst, b []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(b)))
	return append(dst, b...)
}

// AppendString appends s with an unsigned varint length prefix.
func AppendString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

// AppendLen appends a list length. A nilable list distinguishes nil from
// empty by storing len+1, with 0 for nil; Reader.NilLen reads it back.
func AppendLen(dst []byte, n int, nilable, isNil bool) []byte {
	switch {
	case !nilable:
		return binary.AppendUvarint(dst, uint64(n))
	case isNil:
		return append(dst, 0)
	default:
		return binary.AppendUvarint(dst, uint64(n)+1)
	}
}

// ErrMalformed marks bytes that are not a canonical image: truncated or
// overlong varints, out-of-range values, lengths past the end of the input,
// or trailing bytes.
var ErrMalformed = errors.New("malformed binary image")

// Reader decodes a binary image. The first failure sticks: later reads return
// zero values, and Err reports what went wrong and at which byte, so decoders
// read a whole record and check once.
type Reader struct {
	buf []byte
	off int
	err error
}

// NewReader returns a Reader over b. Byte strings it returns alias b.
func NewReader(b []byte) Reader { return Reader{buf: b} }

// Err returns the first decoding failure, or nil.
func (r *Reader) Err() error { return r.err }

// Remaining is the number of unread bytes.
func (r *Reader) Remaining() int { return len(r.buf) - r.off }

// Done returns the first decoding failure, or an error when bytes remain
// unread: an image ends where its last field does.
func (r *Reader) Done() error {
	if r.err == nil && r.off != len(r.buf) {
		r.fail("%d trailing bytes", len(r.buf)-r.off)
	}
	return r.err
}

func (r *Reader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("%w: %s at byte %d", ErrMalformed, fmt.Sprintf(format, args...), r.off)
	}
}

// Uint reads an unsigned varint, refusing overlong encodings.
func (r *Reader) Uint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.buf[r.off:])
	if n <= 0 {
		if n == 0 {
			r.fail("truncated varint")
		} else {
			r.fail("varint overflows 64 bits")
		}
		return 0
	}
	if n > 1 && r.buf[r.off+n-1] == 0 {
		r.fail("overlong varint")
		return 0
	}
	r.off += n
	return v
}

// Int reads a zigzag varint.
func (r *Reader) Int() int64 {
	u := r.Uint()
	return int64(u>>1) ^ -int64(u&1)
}

// Int32 reads a zigzag varint that must fit in an int32.
func (r *Reader) Int32() int32 {
	v := r.Int()
	if v < math.MinInt32 || v > math.MaxInt32 {
		r.fail("value %d overflows int32", v)
		return 0
	}
	return int32(v)
}

// Intn reads a zigzag varint that must fit in an int.
func (r *Reader) Intn() int {
	v := r.Int()
	if int64(int(v)) != v {
		r.fail("value %d overflows int", v)
		return 0
	}
	return int(v)
}

// Bool reads one byte that must be 0 or 1.
func (r *Reader) Bool() bool {
	if r.err != nil {
		return false
	}
	if r.off >= len(r.buf) {
		r.fail("truncated bool")
		return false
	}
	b := r.buf[r.off]
	if b > 1 {
		r.fail("bool byte %d", b)
		return false
	}
	r.off++
	return b == 1
}

// Byte reads one raw byte.
func (r *Reader) Byte() byte {
	if r.err != nil {
		return 0
	}
	if r.off >= len(r.buf) {
		r.fail("truncated byte")
		return 0
	}
	b := r.buf[r.off]
	r.off++
	return b
}

// Len reads a list length. Every list element takes at least one byte, so a
// length beyond the unread bytes is malformed: a hostile length cannot make
// the decoder allocate more than the input's size.
func (r *Reader) Len() int {
	n := r.Uint()
	if n > uint64(r.Remaining()) {
		r.fail("length %d exceeds the %d remaining bytes", n, r.Remaining())
		return 0
	}
	return int(n)
}

// NilLen reads a nilable list length written by AppendLen.
func (r *Reader) NilLen() (n int, isNil bool) {
	u := r.Uint()
	if u == 0 || r.err != nil {
		return 0, true
	}
	if u-1 > uint64(r.Remaining()) {
		r.fail("length %d exceeds the %d remaining bytes", u-1, r.Remaining())
		return 0, true
	}
	return int(u - 1), false
}

// Bytes reads a length-prefixed byte string. The result aliases the input.
func (r *Reader) Bytes() []byte {
	n := r.Len()
	if r.err != nil {
		return nil
	}
	b := r.buf[r.off : r.off+n : r.off+n]
	r.off += n
	return b
}

// String reads a length-prefixed string.
func (r *Reader) String() string { return string(r.Bytes()) }
