package shmem

import (
	"hash/maphash"
	"reflect"
	"testing"

	"revisionist/internal/sched"
)

// fpOf hashes one fingerprint appender with the shared seed, under the
// identity (a nil Canon).
func fpOf(f func(h *maphash.Hash, c *sched.Canon)) uint64 {
	h := sched.NewFingerprintHash()
	f(&h, nil)
	return h.Sum64()
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
		return fpOf(func(h *maphash.Hash, c *sched.Canon) {
			for _, v := range vs {
				AppendValue(h, v, c)
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
