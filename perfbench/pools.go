package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"

	"revisionist/internal/dist/wire"
	"revisionist/internal/harness"
	"revisionist/internal/protocol"
	"revisionist/internal/trace"
)

// checkEntry is one check job of a pool: the options it is submitted with,
// its weight in a deck, and the reference rendering every run of it must
// reproduce byte for byte.
type checkEntry struct {
	label  string
	weight int
	opts   harness.Options

	proto *protocol.Protocol
	want  []byte // harness.WriteCheckReport of the in-process reference
}

func check(label string, weight int, opts harness.Options) *checkEntry {
	return &checkEntry{label: label, weight: weight, opts: opts}
}

// largePool is the svc-large and local-large pool: long searches, so wave
// barriers, closure deltas and search steps dominate. Run one at a time,
// the kinds' latencies are disjoint bands (aan < kset < consensus <
// unpruned); the weights put the median in the middle of the consensus band
// and the tail inside the unpruned job's band. Every search is exhaustive,
// so a job does the same work on every run: a search cut by a run budget
// explores a timing-dependent number of runs past the cut before its
// workers stop.
func largePool() []*checkEntry {
	p := func(n, k int) protocol.Params { return protocol.Params{N: n, K: k} }
	return []*checkEntry{
		check("kset-n4k3-d20", 1, harness.Options{Protocol: "kset", Params: p(4, 3), MaxDepth: 20, Prune: true}),
		check("consensus-n3-d16", 2, harness.Options{Protocol: "consensus", Params: p(3, 0), MaxDepth: 16, Prune: true}),
		check("aan-n3-d16-sym", 1, harness.Options{Protocol: "aan", Params: p(3, 0), MaxDepth: 16, Prune: true, Symmetry: true}),
		check("consensus-n3-d11-unpruned", 2, harness.Options{Protocol: "consensus", Params: p(3, 0), MaxDepth: 11}),
	}
}

// prepare computes every entry's reference report with the in-process
// harness.Check. It runs before any timing starts.
func prepare(pool []*checkEntry) error {
	for _, e := range pool {
		rep, err := harness.Check(e.opts)
		if err != nil {
			return fmt.Errorf("reference %s: %w", e.label, err)
		}
		if !rep.Explore.Exhausted {
			// Workers stop a cut search a timing-dependent number of runs
			// past the cut, which breaks the run-counter check below.
			return fmt.Errorf("reference %s: the search is not exhaustive", e.label)
		}
		e.proto = rep.Protocol
		var b bytes.Buffer
		harness.WriteCheckReport(&b, rep, e.opts.MaxDepth, e.opts.Prune, e.opts.Symmetry, nil)
		e.want = b.Bytes()
	}
	return nil
}

// verify byte-compares one finished job's report with the entry's reference
// and requires a witness artifact exactly when the job found violations.
func (e *checkEntry) verify(params protocol.Params, rep *trace.ExploreReport, witness *wire.Witness) error {
	var b bytes.Buffer
	harness.WriteCheckReport(&b, &harness.CheckReport{Protocol: e.proto, Params: params, Explore: rep},
		e.opts.MaxDepth, e.opts.Prune, e.opts.Symmetry, nil)
	if !bytes.Equal(b.Bytes(), e.want) {
		return fmt.Errorf("%s: report differs from the reference:\n--- want ---\n%s--- got ---\n%s", e.label, e.want, b.Bytes())
	}
	switch nv := len(rep.Violations); {
	case nv > 0 && (witness == nil || len(witness.Violations) != nv):
		return fmt.Errorf("%s: %d violations but the witness artifact is missing or incomplete", e.label, nv)
	case nv == 0 && witness != nil:
		return fmt.Errorf("%s: witness artifact without violations", e.label)
	}
	return nil
}

// runsCheck holds the runs the registry saw explored for a job against its
// report: an exhaustive search explores exactly the runs it reports.
func (e *checkEntry) runsCheck(explored, reported int64) error {
	if explored == reported {
		return nil
	}
	return fmt.Errorf("%s: registry search_runs_total moved by %d, report has %d runs", e.label, explored, reported)
}

// sequence deals a seeded job sequence from a pool: deck after deck, each
// deck holding entry i weights[i] times in seeded order. Runs stop only at
// deck boundaries, so every run executes the same mix of job kinds and the
// per-job counts of a run are exact deck averages.
type sequence struct {
	rng     *rand.Rand
	weights []int
	deck    []int
	pos     int
	dealt   []int // every index dealt, in order: the recorded sequence
}

func newSequence(seed int64, weights []int) *sequence {
	return &sequence{rng: rand.New(rand.NewSource(seed)), weights: weights}
}

// next returns the next entry index and whether it closes a deck.
func (s *sequence) next() (int, bool) {
	if s.pos == len(s.deck) {
		s.deck = s.deck[:0]
		for i, w := range s.weights {
			for j := 0; j < w; j++ {
				s.deck = append(s.deck, i)
			}
		}
		s.rng.Shuffle(len(s.deck), func(i, j int) { s.deck[i], s.deck[j] = s.deck[j], s.deck[i] })
		s.pos = 0
	}
	i := s.deck[s.pos]
	s.pos++
	s.dealt = append(s.dealt, i)
	return i, s.pos == len(s.deck)
}

// record renders the dealt sequence as entry indices, one deck per group.
func (s *sequence) record() string {
	size := deck(s)
	var b strings.Builder
	for i, e := range s.dealt {
		if i > 0 && i%size == 0 {
			b.WriteByte(' ')
		}
		fmt.Fprint(&b, e)
	}
	return b.String()
}

// deck is the number of jobs in one of seq's decks.
func deck(seq *sequence) int {
	n := 0
	for _, w := range seq.weights {
		n += w
	}
	return n
}

func weights[E any](pool []E, w func(E) int) []int {
	out := make([]int, len(pool))
	for i, e := range pool {
		out[i] = w(e)
	}
	return out
}
