// Package catalog provides a concurrent, versioned statistics-catalog store
// on top of package stats, designed for the estimation service's read-heavy
// workload: Est-IO lookups happen on the planning hot path of every query,
// while statistics installs and refreshes (LRU-Fit reruns) are rare.
//
// The concurrency model is copy-on-write snapshots:
//
//   - Readers call Snapshot (or the Get/Keys/Len conveniences) and receive an
//     immutable view through a single atomic pointer load — no locks, no
//     contention, no allocation. Entries inside a snapshot are shared and
//     must be treated as read-only.
//
//   - Every mutation (Put, Delete, ReplaceAll, ImportSnapshot, MergeSnapshot,
//     MergeEntries, Reload) goes through one commit path: a prepare step,
//     run under the store mutex, derives the next entry set from the newest
//     applied snapshot and names the log frames that record the change; the
//     group-commit leader makes the frames durable and publishes the new
//     snapshot with one atomic store. A reader that loaded the old snapshot
//     keeps a consistent view for as long as it holds the pointer.
//
// Every published snapshot carries a monotonically increasing generation
// number, so callers (for example the service's estimate memo cache) can key
// derived state by generation and have it invalidate naturally when
// statistics change.
//
// OpenWAL binds a store to a catalog file: mutations append to a
// group-committed write-ahead log beside it, and the file itself is a
// periodic checkpoint written crash-safely (a CRC32-C trailer pins the
// payload, the temp file is fsynced before the atomic rename, the previous
// generation is kept as <path>.prev, and the directory is fsynced after the
// rename). Opening recovers from a corrupt, truncated, or crash-orphaned
// checkpoint by falling back to .prev (see persist.go) and replays the log
// past it (see wal.go); Reload adopts a file refreshed out-of-process
// without downtime. NewStore is the in-memory store: the same commit path
// with a log that writes nothing. All filesystem access goes through a
// faultfs.FS, so chaos tests (and the EPFIS_FAULTS knob) can inject torn
// writes, failed fsyncs, and slow disks deterministically.
package catalog

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"sort"
	"sync"
	"sync/atomic"

	"epfis/internal/core"
	"epfis/internal/curvefit"
	"epfis/internal/faultfs"
	"epfis/internal/histogram"
	"epfis/internal/stats"
)

// ErrNoPath is returned by Reload and Checkpoint on an in-memory store.
var ErrNoPath = errors.New("catalog: store has no backing file")

// ErrNotFound aliases the stats-package sentinel so callers can test lookup
// misses without importing both packages.
var ErrNotFound = stats.ErrNotFound

// Snapshot is an immutable point-in-time view of the catalog. All methods
// are safe for concurrent use; the *stats.IndexStats values it returns are
// shared across snapshots and must not be mutated.
type Snapshot struct {
	gen      uint64
	entries  map[string]*stats.IndexStats
	compiled map[string]*core.CompiledEstimator // same keys as entries
	keys     []string                           // sorted
}

// Generation reports the snapshot's version number. Generations increase by
// one per committed write; generation 0 is the empty store.
func (s *Snapshot) Generation() uint64 { return s.gen }

// Len reports the number of catalog entries.
func (s *Snapshot) Len() int { return len(s.entries) }

// Keys lists the entry keys ("table.column") in sorted order. The returned
// slice is a copy and may be retained or mutated by the caller.
func (s *Snapshot) Keys() []string {
	ks := make([]string, len(s.keys))
	copy(ks, s.keys)
	return ks
}

// Get returns the entry for table.column, or an error wrapping ErrNotFound.
// The returned entry is shared; treat it as read-only.
func (s *Snapshot) Get(table, column string) (*stats.IndexStats, error) {
	e, ok := s.entries[table+"."+column]
	if !ok {
		return nil, fmt.Errorf("%w: %s.%s", ErrNotFound, table, column)
	}
	return e, nil
}

// Lookup is Get by precomputed key, returning ok = false on a miss.
func (s *Snapshot) Lookup(key string) (*stats.IndexStats, bool) {
	e, ok := s.entries[key]
	return e, ok
}

// Compiled returns the pre-compiled Est-IO estimator for table.column, built
// once when the snapshot was published (off the request path). The serving
// hot path uses this instead of re-validating the raw entry per call. It is a
// plain map lookup: no locks, no allocation for short keys.
func (s *Snapshot) Compiled(table, column string) (*core.CompiledEstimator, bool) {
	ce, ok := s.compiled[table+"."+column]
	return ce, ok
}

// CompiledByKey is Compiled by precomputed "table.column" key.
func (s *Snapshot) CompiledByKey(key string) (*core.CompiledEstimator, bool) {
	ce, ok := s.compiled[key]
	return ce, ok
}

// Store is the concurrent, versioned catalog store. The zero value is not
// usable; construct with NewStore or OpenWAL. Methods are safe for
// concurrent use by any number of goroutines.
type Store struct {
	snap atomic.Pointer[Snapshot]

	mu        sync.Mutex // serializes prepare steps; guards the fields below
	path      string     // "" = in-memory only
	fs        faultfs.FS // filesystem for persistence (faultfs.OS outside tests)
	recovered bool       // OpenWAL served the .prev generation
	ckptSum   uint32     // CRC32-C of the catalog file bytes last loaded or checkpointed

	// applied is the newest built snapshot — possibly not yet durable — that
	// the next mutation's prepare derives from; snap only ever advances to
	// durable state. See wal.go for the group-commit protocol.
	wal             *wal
	walQ            walQueue
	applied         *Snapshot
	checkpointEvery int
	sinceCheckpoint int
	closed          bool

	// ingestSrc reports the still-live ingest-journal records a checkpoint
	// must carry into the rotated log (see SetIngestSource in wal.go).
	ingestSrc func() [][]byte
}

// NewStore returns an empty in-memory store. It commits through the same
// path as a WAL-backed store; its log writes nothing.
func NewStore() *Store {
	return newStore(newSnapshot(0, map[string]*stats.IndexStats{}, nil), &wal{}, -1)
}

func newStore(snap *Snapshot, w *wal, checkpointEvery int) *Store {
	st := &Store{fs: faultfs.OS(), wal: w, applied: snap, checkpointEvery: checkpointEvery}
	st.walQ.cond = sync.NewCond(&st.walQ.mu)
	st.snap.Store(snap)
	return st
}

// Path reports the backing catalog file, or "" for an in-memory store.
func (st *Store) Path() string { return st.path }

// Recovered reports whether OpenWAL could not verify the main catalog file
// and served the retained previous generation instead.
func (st *Store) Recovered() bool { return st.recovered }

// Snapshot returns the current immutable view. This is a single atomic load;
// call it once per request and perform all related lookups against the same
// snapshot for a consistent read.
func (st *Store) Snapshot() *Snapshot { return st.snap.Load() }

// Generation reports the current snapshot's generation.
func (st *Store) Generation() uint64 { return st.Snapshot().gen }

// Len reports the current number of entries.
func (st *Store) Len() int { return st.Snapshot().Len() }

// Keys lists the current entry keys in sorted order.
func (st *Store) Keys() []string { return st.Snapshot().Keys() }

// Get returns the current entry for table.column. The returned entry is
// shared; treat it as read-only.
func (st *Store) Get(table, column string) (*stats.IndexStats, error) {
	return st.Snapshot().Get(table, column)
}

// Put validates and installs (or replaces) an entry, returning the new
// generation. The entry is deep-copied, so the caller may keep mutating its
// own copy.
func (st *Store) Put(e *stats.IndexStats) (uint64, error) {
	if err := e.Validate(); err != nil {
		return 0, err
	}
	cp := deepCopy(e)
	payload, err := json.Marshal(cp)
	if err != nil {
		return 0, fmt.Errorf("catalog: encode entry: %w", err)
	}
	return st.commit(func(base *Snapshot) (map[string]*stats.IndexStats, []walFrame) {
		next := cloneEntries(base.entries)
		next[cp.Key()] = cp
		return next, []walFrame{{walFramePut, payload}}
	})
}

// Delete removes the entry for table.column, reporting whether it existed.
// Deleting a missing entry is a no-op that does not bump the generation.
func (st *Store) Delete(table, column string) (bool, uint64, error) {
	key := table + "." + column
	gen, err := st.commit(func(base *Snapshot) (map[string]*stats.IndexStats, []walFrame) {
		if _, ok := base.entries[key]; !ok {
			return nil, nil
		}
		next := cloneEntries(base.entries)
		delete(next, key)
		return next, []walFrame{{walFrameDelete, []byte(key)}}
	})
	if err != nil {
		return false, 0, err
	}
	if gen == 0 {
		return false, st.Generation(), nil
	}
	return true, gen, nil
}

// ReplaceAll swaps the entire catalog contents for c's entries in one
// generation step (c itself is not retained).
func (st *Store) ReplaceAll(c *stats.Catalog) (uint64, error) {
	next := entriesOf(c)
	for k, e := range next {
		next[k] = deepCopy(e)
	}
	payload, err := catalogJSON(next)
	if err != nil {
		return 0, err
	}
	return st.replaceAll(next, payload)
}

// replaceAll commits entries as the whole catalog, logged as one replace
// frame carrying payload, their catalog JSON.
func (st *Store) replaceAll(entries map[string]*stats.IndexStats, payload []byte) (uint64, error) {
	return st.commit(func(*Snapshot) (map[string]*stats.IndexStats, []walFrame) {
		return entries, []walFrame{{walFrameReplace, payload}}
	})
}

// Reload picks up a catalog file refreshed out-of-process (an LRU-Fit rerun
// writing the catalog path) as a new generation, so statistics swap in
// without downtime; in-flight readers keep their old snapshot.
//
// A file whose bytes differ from the checkpoint the store last loaded or
// wrote is verified and adopted exactly as it stands — the log tail is not
// replayed over it — logged as one replace frame, and rewritten as the
// store's own checkpoint, so the reload survives a restart. Bytes that fail
// verification are never adopted: the current snapshot stays published and
// the caller (the service's degraded mode) decides how loudly to surface
// the failure. An unchanged file holds nothing the store lacks, so its
// current entries are republished as the next generation.
func (st *Store) Reload() (uint64, error) {
	if st.path == "" {
		return 0, ErrNoPath
	}
	var gen uint64
	// Read and compare as the group-commit leader: no checkpoint can rewrite
	// the file, or record its checksum, in between.
	err := st.lead(func() error {
		data, err := st.fs.ReadFile(st.path)
		if err != nil && !errors.Is(err, os.ErrNotExist) {
			return err
		}
		st.mu.Lock()
		own := crc32.Checksum(data, crcTable) == st.ckptSum
		st.mu.Unlock()
		if own {
			gen, err = st.commitAsLeader(func(base *Snapshot) (map[string]*stats.IndexStats, []walFrame) {
				return base.entries, nil
			})
			return err
		}
		if err != nil {
			return err
		}
		payload, _, err := verifyPayload(data)
		if err != nil {
			return err
		}
		c, err := stats.Load(bytes.NewReader(payload))
		if err != nil {
			return err
		}
		entries := entriesOf(c)
		gen, err = st.commitAsLeader(func(*Snapshot) (map[string]*stats.IndexStats, []walFrame) {
			return entries, []walFrame{{walFrameReplace, payload}}
		})
		if err == nil {
			// Best effort, like every checkpoint: the replace frame is
			// already durable in the log.
			_ = st.checkpointAsLeader()
		}
		return err
	})
	if err != nil {
		return 0, fmt.Errorf("catalog: reload: %w", err)
	}
	return gen, nil
}

// entriesOf lists c's entries by key.
func entriesOf(c *stats.Catalog) map[string]*stats.IndexStats {
	entries := make(map[string]*stats.IndexStats, c.Len())
	for _, k := range c.Keys() {
		if e, err := c.Get(splitKey(k)); err == nil {
			entries[k] = e
		}
	}
	return entries
}

// newSnapshot assembles a snapshot, compiling an Est-IO estimator for every
// entry. Compilation happens here — on the writer's (or loader's) path, never
// on a request path — and entries carried over unchanged from prev (same
// pointer, thanks to the copy-on-write entry sharing in cloneEntries) reuse
// prev's compiled estimator instead of recompiling. An entry that fails to
// compile (impossible for entries that passed validation, but recovery paths
// are deliberately paranoid) simply has no compiled form; readers fall back
// to interpreted EstIO for it.
func newSnapshot(gen uint64, entries map[string]*stats.IndexStats, prev *Snapshot) *Snapshot {
	s := &Snapshot{
		gen:      gen,
		entries:  entries,
		compiled: make(map[string]*core.CompiledEstimator, len(entries)),
		keys:     sortedKeys(entries),
	}
	for k, e := range entries {
		if prev != nil {
			if pe, ok := prev.entries[k]; ok && pe == e {
				if ce, ok := prev.compiled[k]; ok {
					s.compiled[k] = ce
					continue
				}
			}
		}
		if ce, err := core.Compile(e, core.Options{}); err == nil {
			s.compiled[k] = ce
		}
	}
	return s
}

func cloneEntries(m map[string]*stats.IndexStats) map[string]*stats.IndexStats {
	out := make(map[string]*stats.IndexStats, len(m)+1)
	for k, v := range m {
		out[k] = v // entries are immutable; share them across generations
	}
	return out
}

// deepCopy clones an entry including its slice-backed fields, so snapshot
// entries never alias caller-owned memory.
func deepCopy(e *stats.IndexStats) *stats.IndexStats {
	cp := *e
	if e.Curve.Knots != nil {
		cp.Curve.Knots = append([]curvefit.Point(nil), e.Curve.Knots...)
	}
	if e.KeyHistogram != nil {
		cp.KeyHistogram = append([]histogram.Bucket(nil), e.KeyHistogram...)
	}
	return &cp
}

func sortedKeys(m map[string]*stats.IndexStats) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}

func splitKey(key string) (table, column string) {
	for i := len(key) - 1; i >= 0; i-- {
		if key[i] == '.' {
			return key[:i], key[i+1:]
		}
	}
	return key, ""
}
