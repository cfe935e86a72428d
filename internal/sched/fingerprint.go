package sched

import "hash/maphash"

// This file defines the fingerprint contract shared by the memory and
// execution layers: a configuration — the state of every shared base object
// plus the state of every process — is reduced to a 64-bit maphash by having
// each participant append its state to one running hash. Stateful
// exploration (trace.ExploreOpts.Prune) uses the hash as a visited-state key
// to cut DFS subtrees whose root configuration was already fully explored.
//
// Contract rules:
//
//   - Append only semantic state: anything that determines future behaviour.
//     Never append statistics (operation counters), identities that vary
//     between otherwise-equal runs (pointers, allocation order), or
//     observational logs.
//   - Appends must be unambiguous under concatenation: start with a tag byte
//     and length-prefix any variable-length data, so that two different
//     configurations cannot serialize to the same byte stream.
//   - Appending must not mutate the object, must not take scheduler steps,
//     and should not allocate once warm — fingerprints are computed at every
//     scheduler decision point.
//
// Each object has one encoder, which takes a symmetry-group element (a
// *Canon, symmetry.go) to hash its state under: a nil Canon is the
// identity, and the stream it writes is the plain fingerprint. Every Canon
// accessor treats nil that way, so an encoder need not branch on it.
//
// Fingerprints are only comparable within one process: the seed below is
// drawn once per process, which is exactly the scope exploration needs
// (workers share the process) while keeping the hash DoS-resistant.

// Fingerprinter is implemented by shared objects and process machines whose
// configuration can be appended to a running fingerprint hash. The state is
// appended under c: process-indexed state in c's slot order, owned
// components in its component order, embedded pids through c.Pid and
// declared input values as c's role tokens. A nil c is the identity.
type Fingerprinter interface {
	AppendFingerprint(h *maphash.Hash, c *Canon)
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
