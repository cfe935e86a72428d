// Package augsnap implements the paper's m-component augmented snapshot
// object (§3) shared by f processes, on top of a single-writer snapshot H.
//
// An augmented snapshot supports Scan, returning the current view of its m
// components, and Block-Update, which updates several components (not
// necessarily atomically) and either returns a view of the object from a
// constrained earlier point of the execution ("atomic" Block-Update) or
// yields. The implementation follows Algorithms 1–4 exactly:
//
//   - Every Update appends triples (component, value, timestamp) to the
//     updater's component of H; timestamps are f-component vectors ordered
//     lexicographically (Algorithm 1).
//   - The view of a scan result is, per component, the value with the
//     lexicographically largest timestamp (Algorithm 2, Get-View).
//   - Scan double-collects H until two results coincide, helping others
//     between collects (Algorithm 3).
//   - Block-Update scans H, appends its triples, helps lower-id processes,
//     scans again and yields if a lower-id process appended triples in the
//     interval, and otherwise returns the view of the latest scan recorded
//     for it by the helping mechanism (Algorithm 4).
//
// The helping registers L(i,j)[b] are folded into a Help field of H[i], as
// the paper's §3.2 remark prescribes. Scan-result equality, the counts #h_j,
// prefix comparisons and the yield test are all defined over update triples
// only, so help records do not interfere with them (this is what makes Scan
// non-blocking with respect to other Scans and reproduces Lemma 2's step
// counts: exactly 6 H-operations per Block-Update and 2k+3 per Scan with k
// concurrent triple-appending updates).
package augsnap

import (
	"revisionist/internal/shmem"
)

// Value is a component value of the augmented snapshot.
type Value = shmem.Value

// Timestamp is an f-component vector timestamp, compared lexicographically
// (Algorithm 1).
type Timestamp []int

// Less reports t < u in lexicographic order.
func (t Timestamp) Less(u Timestamp) bool {
	for i := range t {
		if t[i] != u[i] {
			return t[i] < u[i]
		}
	}
	return false
}

// Equal reports t == u.
func (t Timestamp) Equal(u Timestamp) bool {
	for i := range t {
		if t[i] != u[i] {
			return false
		}
	}
	return true
}

// Triple is one update triple recorded in H: component, value, timestamp.
type Triple struct {
	Comp int
	Val  Value
	TS   Timestamp
}

// HelpRec is one helping record, the folded register L(src,Dst)[Idx]: the
// writer recorded scan result H for the Idx'th Block-Update of process Dst.
type HelpRec struct {
	Dst int
	Idx int
	H   HView
}

// HComp is the value of one component of H: the append-only list of update
// triples by its owner, the number of Block-Updates the owner performed
// (= number of distinct timestamps in Triples), and the owner's help records.
type HComp struct {
	Triples []Triple
	NumBU   int
	Help    []HelpRec
}

// HView is the result of a scan of H.
type HView []HComp

// eq reports equality of two scan results over update triples only.
func (h HView) eq(g HView) bool {
	for j := range h {
		if len(h[j].Triples) != len(g[j].Triples) {
			return false
		}
	}
	return true
}

// prefix reports that h is a prefix of g (triples only). Within a single
// execution the triple lists are append-only, so length comparison suffices.
func (h HView) prefix(g HView) bool {
	for j := range h {
		if len(h[j].Triples) > len(g[j].Triples) {
			return false
		}
	}
	return true
}

// properPrefix reports that h is a prefix of g and differs somewhere.
func (h HView) properPrefix(g HView) bool {
	return h.prefix(g) && !h.eq(g)
}

// numBU returns #h_j: the number of Block-Updates by q_j visible in h.
func (h HView) numBU(j int) int { return h[j].NumBU }

// view computes Get-View(h) (Algorithm 2): per component, the value of the
// triple with the lexicographically largest timestamp, or nil.
func (h HView) view(m int) []Value {
	return h.viewInto(m, make([]Timestamp, m))
}

// viewInto is view with a caller-provided timestamp scratch buffer (len m,
// not retained); the returned value slice is freshly allocated because
// callers retain it.
func (h HView) viewInto(m int, best []Timestamp) []Value {
	out := make([]Value, m)
	for i := range best {
		best[i] = nil
	}
	for j := range h {
		for _, tr := range h[j].Triples {
			if best[tr.Comp] == nil || best[tr.Comp].Less(tr.TS) {
				best[tr.Comp] = tr.TS
				out[tr.Comp] = tr.Val
			}
		}
	}
	return out
}

// Store is the single-writer snapshot interface the augmented snapshot is
// built from. *shmem.SWSnapshot is atomic: each operation is one scheduler
// step. *shmem.RegSWSnapshot, built from registers per Afek et al., also
// has cursors (StartScan, StartUpdate), and then every H operation takes one
// step per register read or write. Either way the full stack "registers →
// snapshot → augmented snapshot → simulation" runs one step per
// Machine.Resume.
type Store interface {
	Update(pid int, v shmem.Value)
	Scan(pid int) []shmem.Value
	SetRecorder(shmem.Recorder)
}

// cursorStore is a Store whose operations take several steps, exposed as
// cursors taking one register operation per Step.
type cursorStore interface {
	Store
	StartScan(pid int) *shmem.SnapOp
	StartUpdate(pid int, v shmem.Value) *shmem.SnapOp
}

// AugSnapshot is the m-component augmented snapshot object. It is shared by
// f processes with identifiers 0..f-1; the paper's q_1 (smallest identifier,
// whose Block-Updates are always atomic) is process 0.
type AugSnapshot struct {
	f, m int
	h    Store
	cs   cursorStore // h when its operations take several steps, else nil

	buCount []int // Block-Updates performed, per process (single-writer)
	own     []HComp

	log *Log

	// Scratch buffers for the operation hot paths. Execution between two
	// gated steps is exclusive (one step at a time) and no scratch use spans a
	// gate, so per-object reuse is race-free; contents are always copied out
	// (or recomputed) before the next gate.
	helpScratch []HelpRec
	bestScratch []Timestamp
	rawScratch  []shmem.Value
}

// scanIntoer is the allocation-free scan fast path (*shmem.SWSnapshot).
type scanIntoer interface {
	ScanInto(pid int, out []shmem.Value)
}

// New returns an m-component augmented snapshot for f processes, gated by st,
// over an atomic single-writer snapshot H (which accounts for f registers).
func New(st shmem.Stepper, f, m int) *AugSnapshot {
	return NewOver(shmem.NewSWSnapshot("H", st, f, HComp{}), f, m)
}

// NewOver builds the augmented snapshot over a caller-supplied H, e.g. a
// register-built shmem.RegSWSnapshot initialized with HComp{} components.
//
// Offline specification checking (trace.Check) assumes the recorded H history
// is in linearization order, which holds for the atomic store; for the
// register-built store the record points of scans may trail their
// linearization points, so validate such runs at the task level instead.
func NewOver(h Store, f, m int) *AugSnapshot {
	a := &AugSnapshot{
		f:           f,
		m:           m,
		h:           h,
		buCount:     make([]int, f),
		own:         make([]HComp, f),
		log:         &Log{},
		helpScratch: make([]HelpRec, 0, f),
		bestScratch: make([]Timestamp, m),
		rawScratch:  make([]shmem.Value, f),
	}
	a.cs, _ = h.(cursorStore)
	a.h.SetRecorder(a.log)
	return a
}

// Components returns m.
func (a *AugSnapshot) Components() int { return a.m }

// Processes returns f.
func (a *AugSnapshot) Processes() int { return a.f }

// Log returns the recorded H-level history and operation log for offline
// linearization and specification checking (package trace).
func (a *AugSnapshot) Log() *Log { return a.log }

// scanH performs one step of an H scan by pid and returns the converted
// result once the scan completes, nil before. On an atomic store the scan is
// that one step; on a cursorStore *op holds the scan in progress between
// steps. The converted HView owns its memory (help records retain it); the
// raw value slice is scratch when H supports the ScanInto fast path.
func (a *AugSnapshot) scanH(pid int, op **shmem.SnapOp) HView {
	raw := a.rawScratch
	if a.cs != nil {
		if *op == nil {
			*op = a.cs.StartScan(pid)
		}
		if !(*op).Step() {
			return nil
		}
		raw, *op = (*op).View(), nil
	} else if si, ok := a.h.(scanIntoer); ok {
		si.ScanInto(pid, raw)
	} else {
		raw = a.h.Scan(pid)
	}
	h := make(HView, a.f)
	for j := range raw {
		h[j] = raw[j].(HComp)
	}
	return h
}

// newTimestamp implements Algorithm 1 for process pid on scan result h.
func (a *AugSnapshot) newTimestamp(pid int, h HView) Timestamp {
	t := make(Timestamp, a.f)
	for j := 0; j < a.f; j++ {
		t[j] = h.numBU(j)
	}
	t[pid]++
	return t
}

// Scan implements Algorithm 3: double-collect H until two consecutive results
// coincide (over triples), helping every other process between collects, and
// return the view of the last result. It is non-blocking: only an infinite
// sequence of concurrent Block-Updates can starve it.
//
// Scan drives a ScanOp cursor to completion, which suits a stepper that
// admits every step at once (shmem.Free); step machines, which take one gated
// step per Resume, step the cursor themselves via StartScan.
func (a *AugSnapshot) Scan(pid int) []Value {
	op := a.StartScan(pid)
	for !op.Step() {
	}
	return op.View()
}

// BlockUpdate implements Algorithm 4: it applies Updates setting comps[g] to
// vals[g] for each g and returns (view, true) if the Block-Update is atomic,
// or (nil, false) if it yields.
//
// BlockUpdate drives a BlockUpdateOp cursor to completion, like Scan; step
// machines use StartBlockUpdate directly.
func (a *AugSnapshot) BlockUpdate(pid int, comps []int, vals []Value) ([]Value, bool) {
	op := a.StartBlockUpdate(pid, comps, vals)
	for !op.Step() {
	}
	return op.Result()
}

// stageTriples prepares the publication of new triples, the only place NumBU
// advances; updateH then publishes them with one H.update. H[pid] is
// single-writer, so the writer keeps a local copy of its own component and
// appends to it (appends extend the latest slice header, so earlier
// published headers keep seeing their own prefix).
func (a *AugSnapshot) stageTriples(pid int, triples []Triple) {
	cur := a.own[pid]
	a.own[pid] = HComp{
		Triples: append(cur.Triples, triples...),
		NumBU:   cur.NumBU + 1,
		Help:    cur.Help,
	}
}

// stageHelp prepares the publication of help records, which updateH then
// publishes with one H.update. The update is performed even when recs is
// empty, keeping the step counts of Lemma 2 exact (a Block-Update is always 6
// H-operations, a Scan iteration always 2).
func (a *AugSnapshot) stageHelp(pid int, recs []HelpRec) {
	cur := a.own[pid]
	a.own[pid] = HComp{
		Triples: cur.Triples,
		NumBU:   cur.NumBU,
		Help:    append(cur.Help, recs...),
	}
}

// updateH performs one step of publishing pid's staged component to H[pid]
// and reports whether the update completed (see scanH).
func (a *AugSnapshot) updateH(pid int, op **shmem.SnapOp) bool {
	if a.cs == nil {
		a.h.Update(pid, a.own[pid])
		return true
	}
	if *op == nil {
		*op = a.cs.StartUpdate(pid, a.own[pid])
	}
	if !(*op).Step() {
		return false
	}
	*op = nil
	return true
}

// lookupHelp finds the last help record for (dst, idx) in a Help list.
func lookupHelp(help []HelpRec, dst, idx int) HView {
	for i := len(help) - 1; i >= 0; i-- {
		if help[i].Dst == dst && help[i].Idx == idx {
			return help[i].H
		}
	}
	return nil
}
