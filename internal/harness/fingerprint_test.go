package harness

import (
	"bytes"
	"encoding/hex"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"revisionist/internal/proto"
	"revisionist/internal/protocol"
	"revisionist/internal/sched"
	"revisionist/internal/shmem"
	"revisionist/internal/trace"
)

var update = flag.Bool("update", false, "rewrite golden files")

// fingerprintSteps is how many scheduling decisions seededSystem takes: far
// enough into every registered protocol's default instance that its
// configuration holds written components and half-finished processes.
const fingerprintSteps = 12

// seededInstance is one registered protocol's default instance, built the
// way factory builds it, in the mid-run configuration a seeded random
// schedule leaves it in.
type seededInstance struct {
	sys      trace.System
	snap     *shmem.MWSnapshot
	cz       *sched.Canonicalizer
	p        protocol.Params
	schedule []int // the pids granted a step, in order
}

// seededSystem builds pr's default instance (pr is the i-th registered
// protocol) and runs a seeded random schedule on it, halting at the
// fingerprintSteps-th decision.
func seededSystem(tb testing.TB, i int, pr *protocol.Protocol) seededInstance {
	tb.Helper()
	p, err := pr.Resolve(protocol.Params{})
	if err != nil {
		tb.Fatal(err)
	}
	j := &protoJob{inputs: pr.DefaultInputs(p, p.N), task: pr.Task(p), cz: canonicalizer(pr, p)}
	procs, m, err := pr.Build(p, j.inputs)
	if err != nil {
		tb.Fatal(err)
	}
	probe := &decisionProbe{rng: rand.New(rand.NewSource(int64(i) + 1)), maxSteps: fingerprintSteps, at: func(int) {}}
	eng := sched.NewSeqEngine(p.N, probe)
	res := proto.NewRunResult(len(procs))
	snap := shmem.NewMWSnapshot("M", eng, m, nil)
	sys := protoSystem(j, snap, res, proto.Machines(procs, snap, res))
	if _, err := eng.RunMachines(sys.Machines); err != nil && !IsStarved(err) {
		tb.Fatal(err)
	}
	return seededInstance{sys: sys, snap: snap, cz: j.cz, p: p, schedule: probe.picks}
}

// TestFingerprintStreamGolden pins the fingerprint byte stream of every
// registered protocol's default instance in a seeded mid-run configuration:
// the plain stream (under the identity) and the lexicographically least
// stream over the declared symmetry group, hex-encoded. Hashes are seeded
// per process, so the golden pins the bytes the hooks hash, and the test
// checks that the hooks hash exactly those bytes: the plain hook hashes the
// plain stream, and the canonical hook returns the least hash over the
// group's streams. Each line keeps a hash column, "-" while fingerprints
// are seeded per process, for the hash of the stream under a fixed seed.
// Rewrite with go test -run Golden -update.
func TestFingerprintStreamGolden(t *testing.T) {
	var out bytes.Buffer
	fmt.Fprintf(&out, "# Fingerprint streams after %d seeded random decisions (seed: registry index + 1).\n", fingerprintSteps)
	fmt.Fprintf(&out, "# <stream> <hash under a fixed seed, or -> <hex bytes>\n")
	for i, pr := range protocol.Protocols() {
		in := seededSystem(t, i, pr)
		var fp sched.FP
		appendConfig(&fp, in.snap, in.sys.Machines, nil)
		plain := slices.Clone(fp.Bytes())
		h := sched.NewFingerprintHash()
		in.sys.Fingerprint(&h)
		if got, want := h.Sum64(), fp.Sum64(); got != want {
			t.Errorf("%s: the plain hook hashes to %x, its stream to %x", pr.Name, got, want)
		}

		var least []byte
		minHash := ^uint64(0)
		in.cz.Canonical(&fp, func(fp *sched.FP, c *sched.Canon) {
			appendConfig(fp, in.snap, in.sys.Machines, c)
			if least == nil || bytes.Compare(fp.Bytes(), least) < 0 {
				least = slices.Clone(fp.Bytes())
			}
			minHash = min(minHash, fp.Sum64())
		})
		if got := in.sys.CanonicalFingerprint(&h); got != minHash {
			t.Errorf("%s: the canonical hook returns %x, the least hash over the group's streams is %x", pr.Name, got, minHash)
		}
		fmt.Fprintf(&out, "%s %+v group=%d schedule=%v\n", pr.Name, in.p, in.cz.Size(), in.schedule)
		fmt.Fprintf(&out, "plain - %s\n", hex.EncodeToString(plain))
		fmt.Fprintf(&out, "least - %s\n", hex.EncodeToString(least))
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

// TestFingerprintHooksDoNotAllocate pins the contract rule that encoding
// does not allocate once warm: after a first call has grown the system's
// buffer, the plain and canonical hooks of every registered protocol's
// system allocate nothing.
func TestFingerprintHooksDoNotAllocate(t *testing.T) {
	for i, pr := range protocol.Protocols() {
		in := seededSystem(t, i, pr)
		h := sched.NewFingerprintHash()
		for _, c := range []struct {
			name string
			call func()
		}{
			{"plain", func() { h.Reset(); in.sys.Fingerprint(&h) }},
			{"canonical", func() { in.sys.CanonicalFingerprint(&h) }},
		} {
			c.call()
			if a := testing.AllocsPerRun(20, c.call); a != 0 {
				t.Errorf("%s %s: a warm fingerprint allocates %.1f objects per call", pr.Name, c.name, a)
			}
		}
	}
}

// BenchmarkFingerprint times the two stateful-exploration hooks of every
// registered protocol's system on a mid-run configuration: the plain
// fingerprint (reset, encode, sum — what a pruned search does at every
// decision) and the canonical one (the minimum over the declared symmetry
// group, what a symmetry-reduced search does). Both go through the
// trace.System hooks, so the benchmark measures what the explorer pays.
func BenchmarkFingerprint(b *testing.B) {
	for i, pr := range protocol.Protocols() {
		sys := seededSystem(b, i, pr).sys
		h := sched.NewFingerprintHash()
		b.Run(pr.Name+"/plain", func(b *testing.B) {
			b.ReportAllocs()
			for range b.N {
				h.Reset()
				sys.Fingerprint(&h)
				_ = h.Sum64()
			}
		})
		b.Run(pr.Name+"/canonical", func(b *testing.B) {
			b.ReportAllocs()
			for range b.N {
				_ = sys.CanonicalFingerprint(&h)
			}
		})
	}
}
