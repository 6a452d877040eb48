package bincodec

import (
	"bytes"
	"errors"
	"math"
	"testing"
)

// TestRoundTrip: every primitive reads back what was appended, and the
// reader ends exactly at the end.
func TestRoundTrip(t *testing.T) {
	var b []byte
	b = AppendInt(b, math.MinInt64)
	b = AppendInt(b, -1)
	b = AppendInt(b, math.MaxInt32)
	b = AppendUint(b, math.MaxUint64)
	b = AppendBool(b, true)
	b = AppendBool(b, false)
	b = append(b, 0xAB)
	b = AppendString(b, "tenant")
	b = AppendBytes(b, nil)
	b = AppendLen(b, 0, true, true)
	b = AppendLen(b, 0, true, false)
	b = AppendLen(b, 2, false, false)

	r := NewReader(b)
	if v := r.Int(); v != math.MinInt64 {
		t.Fatalf("Int = %d", v)
	}
	if v := r.Intn(); v != -1 {
		t.Fatalf("Intn = %d", v)
	}
	if v := r.Int32(); v != math.MaxInt32 {
		t.Fatalf("Int32 = %d", v)
	}
	if v := r.Uint(); v != math.MaxUint64 {
		t.Fatalf("Uint = %d", v)
	}
	if !r.Bool() || r.Bool() {
		t.Fatal("Bool round trip")
	}
	if v := r.Byte(); v != 0xAB {
		t.Fatalf("Byte = %x", v)
	}
	if v := r.String(); v != "tenant" {
		t.Fatalf("String = %q", v)
	}
	if v := r.Bytes(); len(v) != 0 {
		t.Fatalf("Bytes = %x", v)
	}
	if _, isNil := r.NilLen(); !isNil {
		t.Fatal("nil list read back as non-nil")
	}
	if n, isNil := r.NilLen(); isNil || n != 0 {
		t.Fatalf("empty list read back as (%d, %v)", n, isNil)
	}
	// The last length claims two elements that are not there.
	if n := r.Len(); n != 0 || r.Err() == nil {
		t.Fatalf("Len past the input = %d, err %v", n, r.Err())
	}
}

// TestMalformed: each non-canonical or truncated input fails with
// ErrMalformed, and the failure sticks.
func TestMalformed(t *testing.T) {
	for name, c := range map[string]struct {
		in   []byte
		read func(*Reader)
	}{
		"truncated varint": {[]byte{0x80}, func(r *Reader) { r.Uint() }},
		"overlong varint":  {[]byte{0x80, 0x00}, func(r *Reader) { r.Uint() }},
		"overflow":         {bytes.Repeat([]byte{0xff}, 11), func(r *Reader) { r.Uint() }},
		"int32 overflow":   {AppendInt(nil, math.MaxInt32+1), func(r *Reader) { r.Int32() }},
		"bool byte":        {[]byte{2}, func(r *Reader) { r.Bool() }},
		"truncated bool":   {nil, func(r *Reader) { r.Bool() }},
		"truncated byte":   {nil, func(r *Reader) { r.Byte() }},
		"long string":      {[]byte{5, 'a'}, func(r *Reader) { _ = r.String() }},
		"long nil list":    {[]byte{5}, func(r *Reader) { r.NilLen() }},
		"trailing bytes":   {[]byte{1, 2}, func(r *Reader) { r.Uint() }},
	} {
		r := NewReader(c.in)
		c.read(&r)
		if err := r.Done(); !errors.Is(err, ErrMalformed) {
			t.Errorf("%s: Done = %v, want ErrMalformed", name, err)
		}
		if r.Int() != 0 || r.Err() == nil {
			t.Errorf("%s: the failure did not stick", name)
		}
	}
}
