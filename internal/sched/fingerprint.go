package sched

import (
	"encoding/binary"
	"fmt"
	"hash/maphash"
	"math"
)

// This file defines the fingerprint contract shared by the memory and
// execution layers: a configuration — the state of every shared base object
// plus the state of every process — is encoded into one byte stream (an FP)
// by having each participant append its state to it, and the stream is
// hashed once, with maphash.Bytes, to a 64-bit fingerprint. Stateful
// exploration (trace.ExploreOpts.Prune) uses the fingerprint as a
// visited-state key to cut DFS subtrees whose root configuration was
// already fully explored.
//
// Contract rules:
//
//   - Append only semantic state: anything that determines future behaviour.
//     Never append statistics (operation counters), identities that vary
//     between otherwise-equal runs (pointers, allocation order), or
//     observational logs.
//   - Appends must be unambiguous under concatenation: start with a tag byte
//     and length-prefix any variable-length data, so that two different
//     configurations cannot serialize to the same byte stream. The FP
//     methods are fixed-width (Str and Rendering carry their own length).
//   - Appending must not mutate the object, must not take scheduler steps,
//     and must not allocate once warm — fingerprints are computed at every
//     scheduler decision point, into a buffer each system reuses.
//
// Each object has one encoder, which takes a symmetry-group element (a
// *Canon, symmetry.go) to encode its state under: a nil Canon is the
// identity, and the stream it writes is the plain fingerprint. Every Canon
// accessor treats nil that way, so an encoder need not branch on it.
//
// Floats encode by value, not by bit pattern: -0 encodes as +0 (the two
// compare equal, and no protocol state here tells them apart), and every
// NaN encodes as one canonical NaN. A NaN is unequal to everything, itself
// included, but that is a property of float comparison, not of the state:
// two configurations holding a NaN in the same place behave identically
// (no protocol reads a NaN's payload bits), so they are one state.
//
// Fingerprints are only comparable within one process: the seed below is
// drawn once per process, which is exactly the scope exploration needs
// (workers share the process) while keeping the hash DoS-resistant. The
// byte stream, by contrast, is the same in every process; it is what a
// fixed-seed hash, comparable across processes, would hash. The
// trace.System hooks still take a *maphash.Hash (a plain fingerprint is
// written into it, a canonical one uses it as scratch), so hook wrappers
// built against them keep compiling.

// Fingerprinter is implemented by shared objects and process machines whose
// configuration can be appended to a fingerprint stream. The state is
// appended under c: process-indexed state in c's slot order, owned
// components in its component order, embedded pids through c.Pid and
// declared input values as c's role tokens. A nil c is the identity.
type Fingerprinter interface {
	AppendFingerprint(fp *FP, c *Canon)
}

// FP is a configuration's fingerprint stream: an append-only byte buffer
// that encoders write fixed-width fields to. Reset keeps the backing array,
// so a buffer reused across configurations stops allocating once it has
// grown to the largest one. The zero FP is ready to use.
type FP struct {
	b []byte
}

// Reset empties the stream, keeping its capacity.
func (f *FP) Reset() { f.b = f.b[:0] }

// Bytes returns the encoded stream. It aliases the buffer: it is valid
// until the next append or Reset.
func (f *FP) Bytes() []byte { return f.b }

// Sum64 hashes the stream under the process-wide fingerprint seed. It
// equals writing Bytes to a NewFingerprintHash and taking its Sum64.
func (f *FP) Sum64() uint64 { return maphash.Bytes(fpSeed, f.b) }

// Byte appends one byte (tags).
func (f *FP) Byte(x byte) { f.b = append(f.b, x) }

// Bool appends a bool as one byte, 0 or 1.
func (f *FP) Bool(x bool) {
	var v byte
	if x {
		v = 1
	}
	f.b = append(f.b, v)
}

// Int appends an int as 8 little-endian bytes.
func (f *FP) Int(x int) { f.put64(uint64(x)) }

// Int64 appends an int64 as 8 little-endian bytes.
func (f *FP) Int64(x int64) { f.put64(uint64(x)) }

func (f *FP) put64(x uint64) { f.b = binary.LittleEndian.AppendUint64(f.b, x) }

// canonicalNaN is the one bit pattern every NaN encodes as (math.NaN's).
const canonicalNaN = 0x7FF8000000000001

// Float64 appends a float64's bits as 8 little-endian bytes, with -0
// encoded as +0 and every NaN as canonicalNaN (see the contract above).
func (f *FP) Float64(x float64) {
	switch {
	case x == 0:
		f.put64(0)
	case x != x:
		f.put64(canonicalNaN)
	default:
		f.put64(math.Float64bits(x))
	}
}

// Str appends a string, prefixed with its length.
func (f *FP) Str(s string) {
	f.Int(len(s))
	f.b = append(f.b, s...)
}

// Rendering appends the %T%#v rendering of v, prefixed with its length:
// the fallback encoding of values and processes that have no encoder. It is
// deterministic only for pointer-free, map-free values, and it allocates.
func (f *FP) Rendering(v any) {
	at := len(f.b)
	f.put64(0)
	f.b = fmt.Appendf(f.b, "%T%#v", v, v)
	binary.LittleEndian.PutUint64(f.b[at:], uint64(len(f.b)-at-8))
}

// fpSeed is the process-wide fingerprint seed: every fingerprint hash uses
// it, so hashes from different runs and workers are comparable.
var fpSeed = maphash.MakeSeed()

// NewFingerprintHash returns a hash using the process-wide fingerprint seed.
// Callers reuse one hash across computations via Reset.
func NewFingerprintHash() maphash.Hash {
	var h maphash.Hash
	h.SetSeed(fpSeed)
	return h
}
