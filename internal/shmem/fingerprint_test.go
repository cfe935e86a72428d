package shmem

import (
	"bytes"
	"encoding/hex"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"testing"

	"revisionist/internal/sched"
)

var update = flag.Bool("update", false, "rewrite golden files")

// fpOf hashes one fingerprint appender with the shared seed, under the
// identity (a nil Canon).
func fpOf(f func(fp *sched.FP, c *sched.Canon)) uint64 {
	var fp sched.FP
	f(&fp, nil)
	return fp.Sum64()
}

// TestFingerprintEquality: equal object states hash equal, across distinct
// object instances (the property pruning relies on).
func TestFingerprintEquality(t *testing.T) {
	mk := func() *MWSnapshot {
		s := NewMWSnapshot("M", Free{}, 3, nil)
		s.Update(0, 1, "x")
		s.Update(1, 2, 42)
		return s
	}
	a, b := mk(), mk()
	if fpOf(a.AppendFingerprint) != fpOf(b.AppendFingerprint) {
		t.Fatal("equal states produced different fingerprints")
	}
	b.Update(2, 0, "y")
	if fpOf(a.AppendFingerprint) == fpOf(b.AppendFingerprint) {
		t.Fatal("different states produced equal fingerprints")
	}
	// Operation counters are statistics, not state: a redundant re-write of
	// the same value must not change the fingerprint.
	before := fpOf(a.AppendFingerprint)
	a.Update(0, 1, "x")
	if fpOf(a.AppendFingerprint) != before {
		t.Fatal("fingerprint depends on operation counters")
	}
}

// TestAppendValueUnambiguous: the tagged, length-prefixed value encoding
// must not let adjacent values alias across boundaries or kinds.
func TestAppendValueUnambiguous(t *testing.T) {
	seq := func(vs ...Value) uint64 {
		return fpOf(func(fp *sched.FP, c *sched.Canon) {
			for _, v := range vs {
				AppendValue(fp, v, c)
			}
		})
	}
	cases := [][]Value{
		{"ab", ""},
		{"a", "b"},
		{"", "ab"},
		{nil, nil},
		{0},
		{0.0},
		{false},
		{[]Value{"a"}, "b"},
		{[]Value{"a", "b"}},
		{[]int{1, 2}},
		{[]float64{1, 2}},
	}
	seen := map[uint64][]Value{}
	for _, c := range cases {
		fp := seq(c...)
		if prev, dup := seen[fp]; dup {
			t.Fatalf("value sequences %v and %v collide", prev, c)
		}
		seen[fp] = c
	}
}

// encodeValues returns the fingerprint stream of a value sequence under the
// identity.
func encodeValues(vs ...Value) []byte {
	var fp sched.FP
	for _, v := range vs {
		AppendValue(&fp, v, nil)
	}
	return fp.Bytes()
}

// TestFloatEncoding pins the float semantics of the fingerprint contract:
// -0 encodes as +0, every NaN as one canonical NaN, and neither as any
// other float — for a float64 value and for a []float64.
func TestFloatEncoding(t *testing.T) {
	negZero := math.Copysign(0, -1)
	otherNaN := math.Float64frombits(0xfff8000000000abc)
	for _, c := range []struct {
		name string
		a, b Value
	}{
		{"float64 ±0", 0.0, negZero},
		{"[]float64 ±0", []float64{0, negZero, 1}, []float64{negZero, 0, 1}},
		{"float64 NaN payloads", math.NaN(), otherNaN},
		{"[]float64 NaN payloads", []float64{math.NaN(), 2}, []float64{otherNaN, 2}},
	} {
		if a, b := encodeValues(c.a), encodeValues(c.b); !bytes.Equal(a, b) {
			t.Errorf("%s: encoded as %x and %x, want equal", c.name, a, b)
		}
	}
	distinct := []Value{0.0, math.NaN(), math.Inf(1), math.Inf(-1), math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64}
	for i, a := range distinct {
		for _, b := range distinct[i+1:] {
			if bytes.Equal(encodeValues(a), encodeValues(b)) {
				t.Errorf("%v and %v encode the same", a, b)
			}
		}
	}
}

// TestFingerprintStreamGolden pins the fingerprint byte stream of every
// base object after a few operations, under the identity and under the
// element of a two-process group that swaps the processes, the component
// each owns and the input values "a" and "b" they hold. The register holds
// one value of every kind AppendValue dispatches on. Rewrite with go test
// -run Golden -update.
func TestFingerprintStreamGolden(t *testing.T) {
	cz := swapPair(t, [][]int{{0}, {1}}, map[any]int{"a": 0, "b": 1})
	r := NewRegister("R", Free{}, nil)
	r.Write(0, []Value{nil, 1, int64(2), 2.5, "a", "s", true, []int{3}, []float64{4}, struct{ A int }{5}})
	sw := NewSWSnapshot("S", Free{}, 2, nil)
	sw.Update(0, "a")
	sw.Update(1, 7)
	mw := NewMWSnapshot("M", Free{}, 2, nil)
	mw.Update(0, 1, "b")
	mw.Update(1, 0, int64(5))
	mx := NewMaxSnapshot("X", Free{}, 2, IntLess)
	mx.Update(0, 0, 3)
	mx.Update(1, 1, 9)
	fi := NewFetchInc("F", Free{})
	fi.FetchIncrement(0)
	fi.FetchIncrement(1)
	rsw := NewRegSWSnapshot("H", Free{}, 2, nil)
	rsw.Update(0, "a")
	rsw.Update(1, "y")
	rmw := NewRegMWSnapshot("W", Free{}, 2, 2, nil)
	rmw.Update(0, 0, "x")
	rmw.Update(1, 1, "a")
	rmw.Update(1, 0, "z")

	var out bytes.Buffer
	for _, o := range []struct {
		name string
		obj  sched.Fingerprinter
	}{{"register", r}, {"swsnapshot", sw}, {"mwsnapshot", mw}, {"maxsnapshot", mx},
		{"fetchinc", fi}, {"regswsnapshot", rsw}, {"regmwsnapshot", rmw}} {
		var fp sched.FP
		var streams [][]byte // one per group element, the identity first
		cz.Canonical(&fp, func(fp *sched.FP, c *sched.Canon) {
			o.obj.AppendFingerprint(fp, c)
			streams = append(streams, slices.Clone(fp.Bytes()))
		})
		if len(streams) != 2 {
			t.Fatalf("%s: the swap group encoded %d streams, want 2", o.name, len(streams))
		}
		fp.Reset()
		o.obj.AppendFingerprint(&fp, nil)
		fmt.Fprintf(&out, "%s plain %s\n", o.name, hex.EncodeToString(fp.Bytes()))
		fmt.Fprintf(&out, "%s swapped %s\n", o.name, hex.EncodeToString(streams[1]))
	}
	path := filepath.Join("testdata", "fingerprint_streams.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run go test -run Golden -update to create it)", err)
	}
	if !bytes.Equal(out.Bytes(), want) {
		t.Fatalf("fingerprint streams differ from %s:\n%s", path, out.Bytes())
	}
}

// TestCopyFromIsDeep: a snapshot restored with CopyFrom shares no mutable
// state with its source and preserves the fingerprint at the copy point.
func TestCopyFromIsDeep(t *testing.T) {
	s := NewMWSnapshot("M", Free{}, 2, nil)
	s.Update(0, 0, "v0")
	f := NewMWSnapshot("M", Free{}, 2, nil)
	f.Update(1, 1, "stale")
	f.CopyFrom(s)
	if fpOf(s.AppendFingerprint) != fpOf(f.AppendFingerprint) {
		t.Fatal("CopyFrom changed the fingerprint")
	}
	s.Update(0, 1, "v1")
	if fpOf(s.AppendFingerprint) == fpOf(f.AppendFingerprint) {
		t.Fatal("the copy shares component storage with its source")
	}
	if got := f.Scan(0)[1]; got != nil {
		t.Fatalf("the copy saw the source's later write: %v", got)
	}
}

// TestMWScanIntoMatchesScan: ScanInto fills the caller's buffer with the
// view Scan returns, counts as one scan, and rejects a wrongly sized buffer.
func TestMWScanIntoMatchesScan(t *testing.T) {
	s := NewMWSnapshot("M", Free{}, 3, nil)
	s.Update(0, 2, "x")
	buf := []Value{"old", "old", "old"}
	s.ScanInto(1, buf)
	if want := s.Scan(1); !reflect.DeepEqual(buf, want) {
		t.Fatalf("ScanInto = %v, Scan = %v", buf, want)
	}
	if _, scans := s.OpCounts(); scans != 2 {
		t.Fatalf("scans = %d, want 2", scans)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("ScanInto with a short buffer did not panic")
		}
	}()
	s.ScanInto(0, buf[:2])
}
