// Package core implements the paper's revisionist simulation (§4): f real
// processes (simulators) wait-free simulate an x-obstruction-free protocol Π
// designed for n processes over an m-component multi-writer snapshot, using
// an m-component augmented snapshot object implemented from a single-writer
// snapshot.
//
// There are d direct simulators and f−d covering simulators; covering
// simulators have smaller identifiers (so, by Theorem 20, contention from
// direct simulators never forces a covering simulator's Block-Update to
// yield spuriously — only lower-id covering simulators can). Each simulator
// q_i simulates a private set P_i of simulated processes: |P_i| = 1 for a
// direct simulator, which simulates its process step by step (Algorithm 5),
// and |P_i| = m for a covering simulator, which recursively constructs block
// updates to more and more components (Algorithm 6) and, when an atomic
// Block-Update to the same component set exists, revises the past of its
// next process by locally simulating it against the view that Block-Update
// returned. A covering simulator that constructs a block update to all m
// components locally simulates it followed by a terminating solo execution
// of its first process and outputs that process's output (Algorithm 7).
package core

import (
	"errors"
	"fmt"

	"revisionist/internal/augsnap"
	"revisionist/internal/proto"
	"revisionist/internal/sched"
	"revisionist/internal/shmem"
)

// Config parameterizes a simulation run.
type Config struct {
	// N is the number of simulated processes Π was designed for.
	N int
	// M is the number of components of Π's multi-writer snapshot.
	M int
	// F is the number of simulators.
	F int
	// D is the number of direct simulators (the paper's d; set D = x when Π
	// is x-obstruction-free, or 0 for the pure covering simulation of
	// Theorem 21's first case). Covering simulators get identifiers
	// 0..F-D-1, direct simulators F-D..F-1.
	D int
	// MaxLocalOps bounds each local (hidden) solo simulation; exceeding it
	// means Π is not obstruction-free. Default 100000.
	MaxLocalOps int
	// MaxBlockUpdates bounds the Block-Updates applied by one covering
	// simulator, guarding against non-x-obstruction-free Π. The theoretical
	// bound is b(i) (Lemma 30), which is astronomically loose; the default
	// is 1 << 20.
	MaxBlockUpdates int
	// MaxSteps is the scheduler step budget. Default 1 << 22.
	MaxSteps int
	// RegisterBuiltH implements the single-writer snapshot H from atomic
	// registers (Afek et al.) instead of using the atomic snapshot: the full
	// stack of the paper's model, at a higher step cost per operation.
	RegisterBuiltH bool
}

func (c *Config) fill() error {
	if c.MaxLocalOps <= 0 {
		c.MaxLocalOps = 100_000
	}
	if c.MaxBlockUpdates <= 0 {
		c.MaxBlockUpdates = 1 << 20
	}
	if c.MaxSteps <= 0 {
		c.MaxSteps = 1 << 22
	}
	if c.N < 1 || c.M < 1 || c.F < 1 || c.D < 0 || c.D > c.F {
		return fmt.Errorf("core: invalid config N=%d M=%d F=%d D=%d", c.N, c.M, c.F, c.D)
	}
	if c.M > 64 {
		// Component sets are tracked as 64-bit masks; the b(i) operation
		// bound is astronomically beyond reach long before m gets here.
		return fmt.Errorf("core: m = %d components unsupported (max 64)", c.M)
	}
	if need := (c.F-c.D)*c.M + c.D; need > c.N {
		return fmt.Errorf("core: not enough simulated processes: (f-d)*m + d = %d > n = %d", need, c.N)
	}
	return nil
}

// NumCovering returns the number of covering simulators.
func (c Config) NumCovering() int { return c.F - c.D }

// Partition returns the simulated-process identifiers assigned to simulator
// i: covering simulators get m consecutive identifiers, direct simulators
// one each (Figure 1).
func (c Config) Partition(i int) []int {
	cov := c.NumCovering()
	if i < cov {
		ids := make([]int, c.M)
		for g := range ids {
			ids[g] = i*c.M + g
		}
		return ids
	}
	return []int{cov*c.M + (i - cov)}
}

// Result reports a simulation run.
type Result struct {
	// Outputs[i] is simulator i's output; Done[i] reports termination.
	Outputs []proto.Value
	Done    []bool
	// OutputBy[i] is the simulated process (global id) whose output simulator
	// i adopted, or -1.
	OutputBy []int
	// BlockUpdates, Scans and Operations count augmented snapshot operations
	// applied by each simulator; Revisions counts revise-the-past events.
	BlockUpdates []int
	Scans        []int
	Revisions    []int
	// RevisionLog records every revise-the-past event, in the order the
	// owning simulator performed them; Finals records the Algorithm 7 block
	// of each covering simulator that terminated by constructing a full
	// m-component block update. Both feed ValidateExecution.
	RevisionLog []RevisionRecord
	Finals      []FinalRecord
	// Steps is the total number of base-object (H) steps of the real system.
	Steps int
	// StepsBy is the per-simulator base-object step count.
	StepsBy []int
	// Log is the augmented snapshot history (checkable with trace.Check).
	Log *augsnap.Log
}

// Operations returns the number of augmented snapshot operations applied by
// simulator i (Proposition 24: alternating Scan and Block-Update).
func (r *Result) Operations(i int) int { return r.BlockUpdates[i] + r.Scans[i] }

// RevisionRecord describes one revise-the-past event: simulator Sim revised
// simulated process Proc (global id) by locally running it against the view
// returned by its BUIndex'th Block-Update, hiding Steps (scans and updates to
// the block's components, possibly ending with an output).
type RevisionRecord struct {
	Sim     int
	Proc    int
	BUIndex int // index among Sim's Block-Updates of the one whose view was used
	Steps   []proto.Op
}

// FinalRecord is the full block update a covering simulator locally applies
// before its first process's terminating solo execution (Algorithm 7).
type FinalRecord struct {
	Sim   int
	Comps []int
	Vals  []proto.Value
}

// ErrNotObstructionFree reports that a local solo simulation failed to
// terminate within the configured budget.
var ErrNotObstructionFree = errors.New("core: local solo simulation exceeded budget (protocol not obstruction-free?)")

// ErrBudget reports that a covering simulator exceeded its Block-Update
// budget (protocol not x-obstruction-free for the chosen d, or budget too
// small).
var ErrBudget = errors.New("core: Block-Update budget exceeded")

// SimInputs expands the f simulator inputs to the n simulated-process
// inputs: input j is the input of the simulator whose partition contains
// simulated process j; unassigned processes (which take no steps) get
// inputs[0].
func SimInputs(cfg Config, inputs []proto.Value) []proto.Value {
	simInputs := make([]proto.Value, cfg.N)
	for j := range simInputs {
		simInputs[j] = inputs[0]
	}
	for i := 0; i < cfg.F; i++ {
		for _, id := range cfg.Partition(i) {
			simInputs[id] = inputs[i]
		}
	}
	return simInputs
}

// Run simulates the protocol built by mkProtocol among cfg.F simulators with
// the given per-simulator inputs, scheduling the real system with strat.
//
// mkProtocol must return the n simulated processes of Π given the n inputs;
// input j is the input of the simulator whose partition contains simulated
// process j (unassigned processes get inputs[0], they take no steps).
func Run(cfg Config, inputs []proto.Value, mkProtocol func(inputs []proto.Value) ([]proto.Process, error), strat sched.Strategy) (*Result, error) {
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	if len(inputs) != cfg.F {
		return nil, fmt.Errorf("core: got %d inputs for f = %d simulators", len(inputs), cfg.F)
	}

	allProcs, err := mkProtocol(SimInputs(cfg, inputs))
	if err != nil {
		return nil, err
	}
	if len(allProcs) != cfg.N {
		return nil, fmt.Errorf("core: protocol has %d processes, want n = %d", len(allProcs), cfg.N)
	}

	eng := sched.NewSeqEngine(cfg.F, strat, sched.WithMaxSteps(cfg.MaxSteps))
	var aug *augsnap.AugSnapshot
	if cfg.RegisterBuiltH {
		aug = augsnap.NewOver(shmem.NewRegSWSnapshot("H", eng, cfg.F, augsnap.HComp{}), cfg.F, cfg.M)
	} else {
		aug = augsnap.New(eng, cfg.F, cfg.M)
	}

	res := &Result{
		Outputs:      make([]proto.Value, cfg.F),
		Done:         make([]bool, cfg.F),
		OutputBy:     make([]int, cfg.F),
		BlockUpdates: make([]int, cfg.F),
		Scans:        make([]int, cfg.F),
		Revisions:    make([]int, cfg.F),
		Log:          aug.Log(),
	}
	for i := range res.OutputBy {
		res.OutputBy[i] = -1
	}

	machines := make([]sched.Machine, cfg.F)
	for i := 0; i < cfg.F; i++ {
		ids := cfg.Partition(i)
		ps := make([]proto.Process, len(ids))
		for g, id := range ids {
			ps[g] = allProcs[id]
		}
		if i < cfg.NumCovering() {
			machines[i] = &coveringMachine{cfg: cfg, aug: aug, me: i, ps: ps, ids: ids, res: res}
		} else {
			machines[i] = &directMachine{aug: aug, me: i, p: ps[0], id: ids[0], res: res}
		}
	}

	sres, rerr := eng.RunMachines(machines)
	res.Steps = sres.Steps
	res.StepsBy = sres.StepsBy
	if rerr != nil {
		return res, rerr
	}
	return res, nil
}

// The simulators are implemented as resumable step machines (sched.Machine):
// every Resume performs exactly one base-object step, by stepping the
// augmented snapshot's operation cursors (augsnap.ScanOp,
// augsnap.BlockUpdateOp): one H operation on the atomic H, one register read
// or write of an H operation on the register-built H. The sequential engine
// runs them by direct dispatch — no goroutines, no channels, no coroutines.

// directMachine implements Algorithm 5.
type directMachine struct {
	aug *augsnap.AugSnapshot
	me  int
	p   proto.Process
	id  int // global id of the simulated process
	res *Result

	scan    *augsnap.ScanOp
	bu      *augsnap.BlockUpdateOp
	started bool
	done    bool
}

// Resume implements sched.Machine.
func (d *directMachine) Resume() bool {
	if d.done {
		return false
	}
	if !d.started {
		d.started = true
		return d.next()
	}
	switch {
	case d.scan != nil:
		if !d.scan.Step() {
			return true
		}
		view := d.scan.View()
		d.scan = nil
		d.res.Scans[d.me]++
		d.p.ApplyScan(view)
		return d.next()
	case d.bu != nil:
		if !d.bu.Step() {
			return true
		}
		d.bu = nil
		d.res.BlockUpdates[d.me]++
		d.p.ApplyUpdate()
		return d.next()
	}
	panic(fmt.Sprintf("core: direct simulator %d resumed with no active operation", d.me))
}

// next starts the operation the simulated process is poised on (without
// performing any step of it), or records its output.
func (d *directMachine) next() bool {
	op := d.p.NextOp()
	switch op.Kind {
	case proto.OpOutput:
		d.res.Outputs[d.me] = op.Val
		d.res.OutputBy[d.me] = d.id
		d.res.Done[d.me] = true
		d.done = true
		return false
	case proto.OpScan:
		d.scan = d.aug.StartScan(d.me)
		return true
	case proto.OpUpdate:
		d.bu = d.aug.StartBlockUpdate(d.me, []int{op.Comp}, []proto.Value{op.Val})
		return true
	default:
		panic(fmt.Sprintf("core: direct simulator saw invalid op kind %v", op.Kind))
	}
}

// blockUpdate is a constructed block update: simulated processes p_{i,1..r}
// poised to update comps[g] with vals[g].
type blockUpdate struct {
	comps []int
	vals  []proto.Value
}

// buEntry remembers an atomic Block-Update to a component set: the view it
// returned and its index among the simulator's Block-Updates.
type buEntry struct {
	view    []proto.Value
	buIndex int
}

// covFrame is one activation of Construct(r) (Algorithm 6), r > 1 frames
// keep the attempts table of their enclosing loop; the r == 1 frame is the
// base case.
type covFrame struct {
	r        int
	attempts map[uint64]buEntry
	blk      blockUpdate // block applied by the frame's active Block-Update
	key      uint64      // component mask of blk
}

// coveringMachine implements Algorithms 6 and 7 with an explicit frame stack
// in place of construct's recursion.
type coveringMachine struct {
	cfg Config
	aug *augsnap.AugSnapshot
	me  int
	ps  []proto.Process // p_{i,1} .. p_{i,m}
	ids []int           // global ids of ps
	res *Result

	stack   []*covFrame
	scan    *augsnap.ScanOp        // active base-case scan
	bu      *augsnap.BlockUpdateOp // active Block-Update of the top frame
	buIndex int                    // index of the active Block-Update
	started bool
	done    bool
}

// Resume implements sched.Machine.
func (c *coveringMachine) Resume() bool {
	if c.done {
		return false
	}
	if !c.started {
		c.started = true
		c.enter(c.cfg.M)
		return true
	}
	switch {
	case c.scan != nil:
		if !c.scan.Step() {
			return true
		}
		view := c.scan.View()
		c.scan = nil
		// Base case of Construct: scan, advance p_{i,1}, hand its poised
		// update to the enclosing frame.
		c.res.Scans[c.me]++
		c.ps[0].ApplyScan(view)
		op := c.ps[0].NextOp()
		if op.Kind == proto.OpOutput {
			return c.output(op.Val, 1)
		}
		if op.Kind != proto.OpUpdate {
			panic(fmt.Errorf("core: p(%d,1) poised to %v after scan", c.me, op.Kind))
		}
		c.stack = c.stack[:len(c.stack)-1] // pop the r == 1 frame
		return c.ret(blockUpdate{comps: []int{op.Comp}, vals: []proto.Value{op.Val}})
	case c.bu != nil:
		if !c.bu.Step() {
			return true
		}
		view, atomic := c.bu.Result()
		c.bu = nil
		// The (r-1)-block was simulated: advance p_{i,1..r-1} past their
		// updates and remember atomic Block-Updates per component set.
		c.res.BlockUpdates[c.me]++
		f := c.stack[len(c.stack)-1]
		for g := 0; g < len(f.blk.comps); g++ {
			c.ps[g].ApplyUpdate()
		}
		if atomic {
			if f.attempts == nil {
				f.attempts = make(map[uint64]buEntry)
			}
			f.attempts[f.key] = buEntry{view: view, buIndex: c.buIndex}
		}
		c.enter(f.r - 1) // loop: construct the next (r-1)-block
		return true
	}
	panic(fmt.Sprintf("core: covering simulator %d resumed with no active operation", c.me))
}

// enter pushes the frames of Construct(r), Construct(r-1), ..., Construct(1)
// — Construct recurses immediately — and starts the base case's scan. No H
// operation is performed.
func (c *coveringMachine) enter(r int) {
	for ; r >= 1; r-- {
		c.stack = append(c.stack, &covFrame{r: r})
	}
	c.scan = c.aug.StartScan(c.me)
}

// ret delivers a constructed r-block to the enclosing Construct frame and
// runs the local (hidden) transitions until the machine parks on the first H
// operation of its next augmented snapshot operation, or terminates.
func (c *coveringMachine) ret(blk blockUpdate) bool {
	for {
		if len(c.stack) == 0 {
			return c.finalize(blk)
		}
		f := c.stack[len(c.stack)-1]
		key := compMask(blk.comps)
		if ent, ok := f.attempts[key]; ok {
			// An atomic Block-Update to the same component set exists:
			// revise the past of p_{i,r} by locally simulating it against
			// that Block-Update's view, hiding its steps under the block
			// update (only updates to the block's components and scans
			// occur before it stops).
			c.res.Revisions[c.me]++
			mem := append([]proto.Value(nil), ent.view...)
			p := c.ps[f.r-1]
			stop, out, hidden, serr := proto.RunSoloTrace(p, mem, func(j int) bool { return key&(1<<uint(j)) != 0 }, c.cfg.MaxLocalOps)
			if serr != nil {
				panic(fmt.Errorf("%w: %v", ErrNotObstructionFree, serr))
			}
			c.res.RevisionLog = append(c.res.RevisionLog, RevisionRecord{
				Sim:     c.me,
				Proc:    c.ids[f.r-1],
				BUIndex: ent.buIndex,
				Steps:   hidden,
			})
			if stop == proto.SoloOutput {
				return c.output(out, f.r)
			}
			op := p.NextOp()
			blk = blockUpdate{
				comps: append(blk.comps, op.Comp),
				vals:  append(blk.vals, op.Val),
			}
			c.stack = c.stack[:len(c.stack)-1]
			continue
		}

		// No atomic Block-Update to this set yet: simulate the block with a
		// Block-Update (the frame's loop body).
		if c.res.BlockUpdates[c.me] >= c.cfg.MaxBlockUpdates {
			panic(fmt.Errorf("%w: simulator %d", ErrBudget, c.me))
		}
		f.blk, f.key = blk, key
		c.buIndex = c.res.BlockUpdates[c.me]
		c.bu = c.aug.StartBlockUpdate(c.me, blk.comps, blk.vals)
		return true
	}
}

// finalize implements Algorithm 7: the top-level Construct returned a block
// update to all m components; locally simulate it (it overwrites every
// component) followed by p_{i,1}'s terminating solo execution, and output.
func (c *coveringMachine) finalize(blk blockUpdate) bool {
	c.res.Finals = append(c.res.Finals, FinalRecord{
		Sim:   c.me,
		Comps: append([]int(nil), blk.comps...),
		Vals:  append([]proto.Value(nil), blk.vals...),
	})
	mem := make([]proto.Value, c.cfg.M)
	for g, comp := range blk.comps {
		mem[comp] = blk.vals[g]
	}
	p1 := c.ps[0].Clone()
	p1.ApplyUpdate() // past its pending update, the first of the block
	stop, out, serr := proto.RunSolo(p1, mem, nil, c.cfg.MaxLocalOps)
	if serr != nil {
		panic(fmt.Errorf("%w: %v", ErrNotObstructionFree, serr))
	}
	if stop != proto.SoloOutput {
		panic(fmt.Errorf("core: unconstrained solo run stopped without output"))
	}
	return c.output(out, 1)
}

// output records the simulator's output (produced by p_{i,g}, 1-based g) and
// finishes the machine.
func (c *coveringMachine) output(v proto.Value, g int) bool {
	c.res.Outputs[c.me] = v
	c.res.OutputBy[c.me] = c.ids[g-1]
	c.res.Done[c.me] = true
	c.done = true
	return false
}

// compMask canonically encodes a component set (components are < 64, see
// Config.fill).
func compMask(comps []int) uint64 {
	var mask uint64
	for _, comp := range comps {
		mask |= 1 << uint(comp)
	}
	return mask
}
