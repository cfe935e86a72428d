package sched

import (
	"bytes"
	"testing"
)

// TestFPEncoding pins the fixed-width field encodings of the fingerprint
// stream, and that hashing a stream once with Sum64 equals writing it to a
// fingerprint hash, which is what the plain-fingerprint hook does.
func TestFPEncoding(t *testing.T) {
	var fp FP
	fp.Byte(0xab)
	fp.Bool(true)
	fp.Bool(false)
	fp.Int(-2)
	fp.Int64(0x0102030405060708)
	fp.Float64(1)
	fp.Str("hi")
	want := []byte{
		0xab, 1, 0,
		0xfe, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff,
		0x08, 0x07, 0x06, 0x05, 0x04, 0x03, 0x02, 0x01,
		0, 0, 0, 0, 0, 0, 0xf0, 0x3f,
		2, 0, 0, 0, 0, 0, 0, 0, 'h', 'i',
	}
	if got := fp.Bytes(); !bytes.Equal(got, want) {
		t.Fatalf("encoded\n%x\nwant\n%x", got, want)
	}

	h := NewFingerprintHash()
	h.Write(fp.Bytes())
	if got, want := fp.Sum64(), h.Sum64(); got != want {
		t.Fatalf("Sum64 %x, hash of the written stream %x", got, want)
	}
	n := len(fp.Bytes())
	fp.Reset()
	if len(fp.Bytes()) != 0 || cap(fp.Bytes()) < n {
		t.Fatalf("Reset left %d bytes, capacity %d (had %d)", len(fp.Bytes()), cap(fp.Bytes()), n)
	}
}
