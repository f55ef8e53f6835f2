package codec

import (
	"bytes"
	"testing"
)

func TestRoundTrip(t *testing.T) {
	var b []byte
	b = AppendU32(b, 0xdeadbeef)
	b = AppendU64(b, 1<<40+7)
	b = AppendBool(b, true)
	b = AppendBlob(b, []byte("blob"))
	b = AppendStr(b, "str")
	b = append(b, bytes.Repeat([]byte{9}, 32)...)
	b = append(b, 1, 2, 3)
	r := NewReader(b)
	if r.U32() != 0xdeadbeef || r.U64() != 1<<40+7 || !r.Bool() ||
		string(r.Blob()) != "blob" || r.Str() != "str" || r.Hash() != [32]byte(bytes.Repeat([]byte{9}, 32)) ||
		!bytes.Equal(r.Fixed(3), []byte{1, 2, 3}) {
		t.Fatal("round trip mismatch")
	}
	if !r.Done() {
		t.Fatal("clean input not done")
	}
}

func TestReaderRefuses(t *testing.T) {
	cases := []struct {
		name string
		in   []byte
		read func(r *Reader)
	}{
		{"short u32", []byte{1, 2, 3}, func(r *Reader) { r.U32() }},
		{"bool of 2", []byte{2}, func(r *Reader) { r.Bool() }},
		{"trailing byte", []byte{1, 0}, func(r *Reader) { r.U8() }},
		{"count past MaxBlob", []byte{0xff, 0xff, 0xff, 0xff, 0}, func(r *Reader) { r.Count(0) }},
		{"count × size past the input", []byte{0, 0, 0, 2, 1, 2, 3}, func(r *Reader) { r.Count(2) }},
	}
	for _, c := range cases {
		r := NewReader(c.in)
		c.read(&r)
		if r.Done() {
			t.Errorf("%s: accepted", c.name)
		}
	}
}

func TestFailureLatches(t *testing.T) {
	r := NewReader([]byte{0, 0, 0, 9, 1, 2, 3, 4})
	if r.Blob() != nil {
		t.Fatal("blob longer than its input returned bytes")
	}
	if r.U32() != 0 || r.Done() {
		t.Fatal("read after a failure succeeded")
	}
}
