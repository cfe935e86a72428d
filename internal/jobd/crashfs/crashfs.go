// Package crashfs is the filesystem seam under the jobd journal, built so
// the queue's durability claims can be tested against power-fail semantics
// instead of asserted. It has two implementations of one small FS interface:
//
//   - OS passes straight through to the os package — production.
//   - Mem is an in-memory filesystem with an explicit durability model and
//     scripted crash injection — the crash-matrix tests.
//
// Mem's durability model is the conservative reading of POSIX: bytes written
// to a file land in a volatile page cache and become durable only when Sync
// commits them; a power cut (PowerCut) discards everything volatile.
// Metadata operations — Create, Rename — are modeled as durably journaled by
// the filesystem, which is the charitable assumption: it still catches the
// classic rename-before-sync bug, because renaming a file whose content was
// never synced yields an empty durable file after the cut.
//
// Crash injection is scripted by mutating-operation index: CrashAfter(op,
// tear) makes the op-th Create/Write/Sync/Rename fail after applying only
// `tear` units of its effect (bytes for Write and Sync, applied-or-not for
// Create and Rename), and every operation after it fails too — the process
// is dead. A partially-applied Sync is how a torn-but-durable journal line
// happens in real life (the kernel flushes pages in arbitrary order), so the
// tear knob is what drives the journal loader's torn-line tolerance. A dry
// run with no crash armed records the full op schedule (Ops), which is what
// lets a test enumerate every crash point exhaustively.
package crashfs

import (
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"sync"
)

// ErrCrashed is the error every operation returns at and after the injected
// crash point: from the process's point of view the machine lost power.
var ErrCrashed = errors.New("crashfs: simulated power failure")

// FS is the journal's view of a filesystem: exactly the operations the jobd
// queue performs, nothing more.
type FS interface {
	// MkdirAll ensures the directory exists.
	MkdirAll(dir string) error
	// Open opens name for reading.
	Open(name string) (File, error)
	// Create truncates or creates name for writing.
	Create(name string) (File, error)
	// OpenAppend opens an existing name for appending.
	OpenAppend(name string) (File, error)
	// Rename atomically replaces newname with oldname.
	Rename(oldname, newname string) error
}

// File is the handle surface the queue needs.
type File interface {
	io.Reader
	io.Writer
	// Sync durably commits everything written so far.
	Sync() error
	io.Closer
}

// OS is the production FS: the os package verbatim.
var OS FS = osFS{}

type osFS struct{}

func (osFS) MkdirAll(dir string) error        { return os.MkdirAll(dir, 0o755) }
func (osFS) Open(name string) (File, error)   { return os.Open(name) }
func (osFS) Create(name string) (File, error) { return os.Create(name) }
func (osFS) OpenAppend(name string) (File, error) {
	return os.OpenFile(name, os.O_WRONLY|os.O_APPEND, 0o644)
}
func (osFS) Rename(oldname, newname string) error { return os.Rename(oldname, newname) }

// OpKind classifies one mutating operation in a Mem op schedule.
type OpKind string

const (
	OpCreate OpKind = "create"
	OpWrite  OpKind = "write"
	OpSync   OpKind = "sync"
	OpRename OpKind = "rename"
)

// Op is one recorded mutating operation: its kind, the file it touched, and
// its size in tear units (bytes for write, unsynced bytes for sync, 1 for
// create/rename). A crash-matrix test enumerates tears in [0, Units].
type Op struct {
	Kind  OpKind
	Name  string
	Units int
}

// memFile is one file's two-tier state: durable survives PowerCut, volatile
// does not. The live view (what a running process reads) is durable followed
// by volatile.
type memFile struct {
	durable  []byte
	volatile []byte
}

func (f *memFile) view() []byte {
	out := make([]byte, 0, len(f.durable)+len(f.volatile))
	out = append(out, f.durable...)
	return append(out, f.volatile...)
}

// Mem is the power-fail-simulating in-memory FS. Safe for concurrent use.
type Mem struct {
	mu      sync.Mutex
	files   map[string]*memFile
	ops     []Op
	crashAt int // 1-based op index to crash at; 0 = disarmed
	tear    int
	opN     int
	crashed bool
}

// NewMem builds an empty filesystem with no crash armed.
func NewMem() *Mem {
	return &Mem{files: map[string]*memFile{}}
}

// CrashAfter arms the injection: the op-th mutating operation after this
// call (1-based — the counter restarts here) applies only `tear` units of
// its effect and then the power dies: it and every later operation return
// ErrCrashed. Matrix tests arm a fresh Mem before replaying a recorded
// workload, so their op indexes line up with the dry run's Ops schedule.
func (m *Mem) CrashAfter(op, tear int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.crashAt, m.tear, m.opN, m.crashed = op, tear, 0, false
}

// Disarm turns injection off (recording continues).
func (m *Mem) Disarm() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.crashAt, m.crashed = 0, false
}

// PowerCut applies the power loss: every file's volatile bytes vanish.
// Callers typically Disarm afterwards and reopen — the reboot.
func (m *Mem) PowerCut() {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, f := range m.files {
		f.volatile = nil
	}
}

// Ops returns the mutating-operation schedule recorded so far — the crash
// matrix a dry run yields.
func (m *Mem) Ops() []Op {
	m.mu.Lock()
	defer m.mu.Unlock()
	return append([]Op(nil), m.ops...)
}

// Durable returns a copy of name's durable bytes — what a reopen after
// PowerCut would read — without disturbing the live state. Nil if absent.
func (m *Mem) Durable(name string) []byte {
	m.mu.Lock()
	defer m.mu.Unlock()
	f := m.files[name]
	if f == nil {
		return nil
	}
	return append([]byte(nil), f.durable...)
}

// step accounts one mutating operation under m.mu: it records the op and
// reports whether the op runs fully (tear = -1), crashes after `tear` units
// (tear >= 0), or is already dead.
func (m *Mem) step(op Op) (tear int, err error) {
	if m.crashed {
		return 0, ErrCrashed
	}
	m.ops = append(m.ops, op)
	m.opN++
	if m.crashAt > 0 && m.opN == m.crashAt {
		m.crashed = true
		return min(m.tear, op.Units), nil
	}
	return -1, nil
}

func (m *Mem) MkdirAll(string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.crashed {
		return ErrCrashed
	}
	return nil
}

func (m *Mem) Open(name string) (File, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.crashed {
		return nil, ErrCrashed
	}
	f := m.files[name]
	if f == nil {
		return nil, &fs.PathError{Op: "open", Path: name, Err: fs.ErrNotExist}
	}
	return &memReader{data: f.view()}, nil
}

func (m *Mem) Create(name string) (File, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	tear, err := m.step(Op{Kind: OpCreate, Name: name, Units: 1})
	if err != nil {
		return nil, err
	}
	if tear == 0 {
		return nil, ErrCrashed // power died before the entry landed
	}
	m.files[name] = &memFile{}
	if tear > 0 {
		return nil, ErrCrashed
	}
	return &memWriter{m: m, name: name}, nil
}

func (m *Mem) OpenAppend(name string) (File, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.crashed {
		return nil, ErrCrashed
	}
	if m.files[name] == nil {
		return nil, &fs.PathError{Op: "open", Path: name, Err: fs.ErrNotExist}
	}
	return &memWriter{m: m, name: name}, nil
}

func (m *Mem) Rename(oldname, newname string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	tear, err := m.step(Op{Kind: OpRename, Name: newname, Units: 1})
	if err != nil {
		return err
	}
	f := m.files[oldname]
	if f == nil {
		return &fs.PathError{Op: "rename", Path: oldname, Err: fs.ErrNotExist}
	}
	if tear == 0 {
		return ErrCrashed // power died before the rename was journaled
	}
	delete(m.files, oldname)
	m.files[newname] = f
	if tear > 0 {
		return ErrCrashed
	}
	return nil
}

// memReader is a read-only snapshot handle.
type memReader struct {
	data []byte
	off  int
}

func (r *memReader) Read(p []byte) (int, error) {
	if r.off >= len(r.data) {
		return 0, io.EOF
	}
	n := copy(p, r.data[r.off:])
	r.off += n
	return n, nil
}

func (r *memReader) Write([]byte) (int, error) {
	return 0, fmt.Errorf("crashfs: file opened read-only")
}
func (r *memReader) Sync() error  { return nil }
func (r *memReader) Close() error { return nil }

// memWriter appends to a file's volatile tail; Sync promotes volatile bytes
// to durable.
type memWriter struct {
	m    *Mem
	name string
}

func (w *memWriter) Read([]byte) (int, error) {
	return 0, fmt.Errorf("crashfs: file opened write-only")
}

func (w *memWriter) Write(p []byte) (int, error) {
	w.m.mu.Lock()
	defer w.m.mu.Unlock()
	f := w.m.files[w.name]
	if f == nil {
		return 0, &fs.PathError{Op: "write", Path: w.name, Err: fs.ErrNotExist}
	}
	tear, err := w.m.step(Op{Kind: OpWrite, Name: w.name, Units: len(p)})
	if err != nil {
		return 0, err
	}
	if tear >= 0 {
		// The write syscall died partway: only a prefix reached the page
		// cache — and even that is volatile.
		f.volatile = append(f.volatile, p[:tear]...)
		return tear, ErrCrashed
	}
	f.volatile = append(f.volatile, p...)
	return len(p), nil
}

func (w *memWriter) Sync() error {
	w.m.mu.Lock()
	defer w.m.mu.Unlock()
	f := w.m.files[w.name]
	if f == nil {
		return &fs.PathError{Op: "sync", Path: w.name, Err: fs.ErrNotExist}
	}
	tear, err := w.m.step(Op{Kind: OpSync, Name: w.name, Units: len(f.volatile)})
	if err != nil {
		return err
	}
	if tear >= 0 {
		// Power died mid-flush: the kernel had committed an arbitrary prefix.
		// This is the one path that makes a torn line durable.
		f.durable = append(f.durable, f.volatile[:tear]...)
		f.volatile = f.volatile[tear:]
		return ErrCrashed
	}
	f.durable = append(f.durable, f.volatile...)
	f.volatile = nil
	return nil
}

func (w *memWriter) Close() error {
	w.m.mu.Lock()
	defer w.m.mu.Unlock()
	if w.m.crashed {
		return ErrCrashed
	}
	return nil
}
