// Package faultfs is a failpoint-style filesystem wrapper for every durable
// path: the catalog's atomic-rename persistence and each internal/journal
// log (the catalog WAL, the hint journals, the key-stamp journal).
// Production code talks to the small FS interface; tests
// (and the EPFIS_FAULTS env knob on cmd/epfis-serve) swap in an Injector
// that fails, truncates, or slows down specific operations at specific
// points — deterministically, so a chaos test that passed once passes every
// time.
//
// The fault model is a list of rules. Each rule matches an operation class
// (write, sync, rename, ...) and a path substring, and fires on the Nth
// matching call (counted per rule), for Count consecutive matches:
//
//	inj := faultfs.NewInjector(faultfs.OS(), 1)
//	inj.Add(faultfs.Rule{Op: faultfs.OpRename, Path: "catalog", Nth: 2, Mode: faultfs.ModeError})
//
// fails the second rename touching a path containing "catalog" and every
// rename is traced, so tests can also assert operation order (for example
// that a sync happens before the rename that publishes it).
//
// Rules can also be parsed from a compact spec string (see ParseRules),
// which is how cmd/epfis-serve wires the EPFIS_FAULTS environment variable.
package faultfs

import (
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"
)

// ErrInjected is the error returned by injected faults (possibly wrapped).
var ErrInjected = errors.New("faultfs: injected fault")

// Op identifies one class of filesystem operation the wrapper can fault.
type Op string

// Operation classes. OpAny matches every class in a Rule.
const (
	OpAny      Op = "*"
	OpReadFile Op = "readfile"
	OpCreate   Op = "create"
	OpAppend   Op = "append"
	OpWrite    Op = "write"
	OpSync     Op = "sync"
	OpClose    Op = "close"
	OpRename   Op = "rename"
	OpRemove   Op = "remove"
	OpSyncDir  Op = "syncdir"
	OpTruncate Op = "truncate"
)

// File is the writable file surface the durable paths need.
type File interface {
	io.Writer
	// Name reports the file's path.
	Name() string
	// Sync flushes the file to stable storage (fsync).
	Sync() error
	// Close closes the file.
	Close() error
}

// FS is the filesystem surface the durable paths are written against.
// Implementations must be safe for concurrent use.
type FS interface {
	// ReadFile reads the whole named file.
	ReadFile(name string) ([]byte, error)
	// CreateTemp creates a new temporary file in dir (os.CreateTemp pattern
	// semantics).
	CreateTemp(dir, pattern string) (File, error)
	// OpenAppend opens the named file for appending, creating it if missing —
	// the write-ahead-log surface.
	OpenAppend(name string) (File, error)
	// Truncate cuts the named file to size bytes (torn-tail repair).
	Truncate(name string, size int64) error
	// Rename atomically renames oldpath to newpath.
	Rename(oldpath, newpath string) error
	// Remove deletes the named file; removing a missing file is the
	// platform error (os.ErrNotExist).
	Remove(name string) error
	// SyncDir fsyncs the directory itself, making renames within it
	// durable.
	SyncDir(dir string) error
}

// osFS is the passthrough implementation over package os.
type osFS struct{}

// OS returns the real filesystem.
func OS() FS { return osFS{} }

func (osFS) ReadFile(name string) ([]byte, error) { return os.ReadFile(name) }

func (osFS) CreateTemp(dir, pattern string) (File, error) {
	f, err := os.CreateTemp(dir, pattern)
	if err != nil {
		return nil, err
	}
	return f, nil
}

func (osFS) OpenAppend(name string) (File, error) {
	f, err := os.OpenFile(name, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	return f, nil
}

func (osFS) Truncate(name string, size int64) error { return os.Truncate(name, size) }

func (osFS) Rename(oldpath, newpath string) error { return os.Rename(oldpath, newpath) }
func (osFS) Remove(name string) error             { return os.Remove(name) }

func (osFS) SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	// Directory fsync is advisory on some platforms; treat "not supported"
	// as success so the wrapper stays portable.
	if err := d.Sync(); err != nil && !errors.Is(err, errors.ErrUnsupported) {
		return err
	}
	return nil
}

// Mode is what an armed rule does when it fires.
type Mode string

const (
	// ModeError fails the operation with ErrInjected (wrapped with the op
	// and path).
	ModeError Mode = "error"
	// ModePartial applies to writes: write roughly half the buffer, then
	// fail — a torn write, as left by a crash or a full disk.
	ModePartial Mode = "partial"
	// ModeSlow delays the operation by Delay (± seeded jitter), then lets
	// it proceed — a degraded disk rather than a broken one.
	ModeSlow Mode = "slow"
)

// Rule arms one fault. The zero Path matches every path; OpAny (or "")
// matches every operation class.
type Rule struct {
	// Op is the operation class to match.
	Op Op
	// Path matches operations whose primary path contains this substring.
	Path string
	// Nth fires the rule on the Nth matching operation (1-based; 0 = 1).
	Nth int
	// Count is how many consecutive matching operations fire once armed
	// (0 = 1; negative = every matching operation from the Nth on).
	Count int
	// Mode selects the fault behaviour; default ModeError.
	Mode Mode
	// Delay is the added latency for ModeSlow (default 10ms).
	Delay time.Duration
}

// ruleState pairs a rule with its per-rule match counter.
type ruleState struct {
	Rule
	matched int // matching operations seen so far
	fired   int // faults delivered
}

// Injector wraps an FS and delivers the armed faults. It also records an
// operation trace (op + path) so tests can assert ordering invariants.
// Safe for concurrent use.
type Injector struct {
	inner FS

	mu        sync.Mutex
	rules     []*ruleState
	rng       *rand.Rand // seeded; drives ModeSlow jitter only
	trace     []string
	injected  int
	maxTraced int
}

// NewInjector wraps inner. The seed makes ModeSlow jitter (and therefore
// the whole injector, given the same operation sequence) deterministic.
func NewInjector(inner FS, seed int64) *Injector {
	return &Injector{
		inner:     inner,
		rng:       rand.New(rand.NewSource(seed)),
		maxTraced: 4096,
	}
}

// Add arms a rule. Rules are evaluated in insertion order; the first one
// that fires wins for a given operation.
func (in *Injector) Add(r Rule) {
	in.mu.Lock()
	defer in.mu.Unlock()
	if r.Op == "" {
		r.Op = OpAny
	}
	if r.Nth <= 0 {
		r.Nth = 1
	}
	if r.Count == 0 {
		r.Count = 1
	}
	if r.Mode == "" {
		r.Mode = ModeError
	}
	if r.Mode == ModeSlow && r.Delay <= 0 {
		r.Delay = 10 * time.Millisecond
	}
	in.rules = append(in.rules, &ruleState{Rule: r})
}

// Reset disarms every rule and clears counters; the trace is kept.
func (in *Injector) Reset() {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.rules = nil
}

// Injected reports how many faults have been delivered.
func (in *Injector) Injected() int {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.injected
}

// Trace returns a copy of the recorded "op path" entries, oldest first
// (bounded; oldest entries are dropped past the cap). Faulted operations
// are suffixed with " !fault".
func (in *Injector) Trace() []string {
	in.mu.Lock()
	defer in.mu.Unlock()
	return append([]string(nil), in.trace...)
}

// check records the operation and decides its fate: nil error and zero
// delay means proceed; ModePartial reports partial=true so the file wrapper
// can tear the write.
func (in *Injector) check(op Op, path string) (delay time.Duration, partial bool, err error) {
	in.mu.Lock()
	var fired *ruleState
	for _, rs := range in.rules {
		if rs.Op != OpAny && rs.Op != op {
			continue
		}
		if rs.Path != "" && rs.Path != "*" && !strings.Contains(path, rs.Path) {
			continue
		}
		rs.matched++
		if rs.matched < rs.Nth {
			continue
		}
		if rs.Count > 0 && rs.fired >= rs.Count {
			continue
		}
		if fired == nil { // first firing rule wins; later rules still count the match
			rs.fired++
			fired = rs
		}
	}
	entry := string(op) + " " + path
	if fired != nil {
		in.injected++
		entry += " !fault"
	}
	if len(in.trace) >= in.maxTraced {
		in.trace = in.trace[1:]
	}
	in.trace = append(in.trace, entry)
	if fired == nil {
		in.mu.Unlock()
		return 0, false, nil
	}
	switch fired.Mode {
	case ModeSlow:
		// Jitter in [Delay/2, Delay], drawn from the seeded source.
		d := fired.Delay/2 + time.Duration(in.rng.Int63n(int64(fired.Delay/2)+1))
		in.mu.Unlock()
		return d, false, nil
	case ModePartial:
		in.mu.Unlock()
		return 0, true, nil
	default:
		in.mu.Unlock()
		return 0, false, fmt.Errorf("%w: %s %s", ErrInjected, op, path)
	}
}

// apply runs the check verdict for non-write operations.
func (in *Injector) apply(op Op, path string) error {
	delay, _, err := in.check(op, path)
	if delay > 0 {
		time.Sleep(delay)
	}
	return err
}

func (in *Injector) ReadFile(name string) ([]byte, error) {
	if err := in.apply(OpReadFile, name); err != nil {
		return nil, err
	}
	return in.inner.ReadFile(name)
}

func (in *Injector) CreateTemp(dir, pattern string) (File, error) {
	if err := in.apply(OpCreate, dir); err != nil {
		return nil, err
	}
	f, err := in.inner.CreateTemp(dir, pattern)
	if err != nil {
		return nil, err
	}
	return &faultFile{inner: f, in: in}, nil
}

func (in *Injector) OpenAppend(name string) (File, error) {
	if err := in.apply(OpAppend, name); err != nil {
		return nil, err
	}
	f, err := in.inner.OpenAppend(name)
	if err != nil {
		return nil, err
	}
	return &faultFile{inner: f, in: in}, nil
}

func (in *Injector) Truncate(name string, size int64) error {
	if err := in.apply(OpTruncate, name); err != nil {
		return err
	}
	return in.inner.Truncate(name, size)
}

func (in *Injector) Rename(oldpath, newpath string) error {
	if err := in.apply(OpRename, newpath); err != nil {
		return err
	}
	return in.inner.Rename(oldpath, newpath)
}

func (in *Injector) Remove(name string) error {
	if err := in.apply(OpRemove, name); err != nil {
		return err
	}
	return in.inner.Remove(name)
}

func (in *Injector) SyncDir(dir string) error {
	if err := in.apply(OpSyncDir, dir); err != nil {
		return err
	}
	return in.inner.SyncDir(dir)
}

// faultFile threads write/sync/close faults through an open file.
type faultFile struct {
	inner File
	in    *Injector
}

func (f *faultFile) Name() string { return f.inner.Name() }

func (f *faultFile) Write(p []byte) (int, error) {
	delay, partial, err := f.in.check(OpWrite, f.inner.Name())
	if delay > 0 {
		time.Sleep(delay)
	}
	if err != nil {
		return 0, err
	}
	if partial {
		n, werr := f.inner.Write(p[:len(p)/2])
		if werr != nil {
			return n, werr
		}
		return n, fmt.Errorf("%w: partial write %s", ErrInjected, f.inner.Name())
	}
	return f.inner.Write(p)
}

func (f *faultFile) Sync() error {
	if err := f.in.apply(OpSync, f.inner.Name()); err != nil {
		return err
	}
	return f.inner.Sync()
}

func (f *faultFile) Close() error {
	if err := f.in.apply(OpClose, f.inner.Name()); err != nil {
		f.inner.Close() // release the descriptor even when the close "fails"
		return err
	}
	return f.inner.Close()
}

// ParseRules parses the compact spec used by the EPFIS_FAULTS knob:
// comma-separated rules of the form
//
//	op:path:nth:mode[:count]
//
// where op is one of the Op constants (or * for any), path is a substring
// match (* or empty for any), nth is the 1-based trigger point, mode is
// error, partial, or slow[=DURATION], and count is the number of firings
// (-1 = forever). Examples:
//
//	write:catalog:1:error          fail the first catalog write
//	rename:*:2:error:-1            fail every rename from the second on
//	sync::1:slow=50ms:3            slow three fsyncs by ~50ms
func ParseRules(spec string) ([]Rule, error) {
	var rules []Rule
	for _, raw := range strings.Split(spec, ",") {
		raw = strings.TrimSpace(raw)
		if raw == "" {
			continue
		}
		parts := strings.Split(raw, ":")
		if len(parts) < 4 || len(parts) > 5 {
			return nil, fmt.Errorf("faultfs: rule %q: want op:path:nth:mode[:count]", raw)
		}
		r := Rule{Op: Op(parts[0]), Path: parts[1]}
		if r.Path == "*" {
			r.Path = ""
		}
		switch r.Op {
		case OpAny, OpReadFile, OpCreate, OpAppend, OpWrite, OpSync, OpClose, OpRename, OpRemove, OpSyncDir, OpTruncate:
		default:
			return nil, fmt.Errorf("faultfs: rule %q: unknown op %q", raw, parts[0])
		}
		n, err := strconv.Atoi(parts[2])
		if err != nil || n < 1 {
			return nil, fmt.Errorf("faultfs: rule %q: bad nth %q", raw, parts[2])
		}
		r.Nth = n
		mode := parts[3]
		if d, ok := strings.CutPrefix(mode, string(ModeSlow)+"="); ok {
			dur, err := time.ParseDuration(d)
			if err != nil {
				return nil, fmt.Errorf("faultfs: rule %q: bad delay %q", raw, d)
			}
			r.Mode, r.Delay = ModeSlow, dur
		} else {
			switch Mode(mode) {
			case ModeError, ModePartial, ModeSlow:
				r.Mode = Mode(mode)
			default:
				return nil, fmt.Errorf("faultfs: rule %q: unknown mode %q", raw, mode)
			}
		}
		if len(parts) == 5 {
			c, err := strconv.Atoi(parts[4])
			if err != nil || c == 0 {
				return nil, fmt.Errorf("faultfs: rule %q: bad count %q", raw, parts[4])
			}
			r.Count = c
		}
		rules = append(rules, r)
	}
	if len(rules) == 0 {
		return nil, errors.New("faultfs: empty fault spec")
	}
	return rules, nil
}
