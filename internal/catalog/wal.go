package catalog

// Write-ahead-logged persistence with group commit: the one durable mode.
//
//	catalog.json          checkpoint: trailered snapshot + "lsn=N" field
//	catalog.json.wal      CRC32-C framed mutation log
//
// Each mutation appends its frames and the commit is a single fsync of the
// log — and that fsync is GROUP commit: while one writer's fsync is in
// flight, later writers enqueue their frames and park; whichever of them
// wakes first becomes the next leader and flushes the whole accumulated
// batch under one fsync. Under concurrency, N mutations cost ~1 fsync plus N
// tiny appends instead of N full-snapshot rewrites.
//
// The log is an internal/journal log, which defines the frame, its torn-tail
// repair and its atomic rewrite. Each frame body here is
//
//	[type u8][lsn u64 LE][payload]
//
// Types: header (log identity, written at creation/rotation), put (one
// entry's JSON), delete (the key), replace (a full catalog JSON). LSNs
// increase by one per logged frame and never repeat within a log+checkpoint
// lineage. Put and Delete log one frame, ReplaceAll, ImportSnapshot and an
// adopting Reload one replace frame, and a merge one put frame per key it
// changes. A merge's frames go out in one append, but a torn append can
// keep a prefix of them: each is a valid union step on its own, and
// anti-entropy pulls the rest again.
//
// Durability protocol. Two snapshot pointers exist: Store.applied (newest
// BUILT state, possibly unfsynced) and Store.snap (published to readers,
// always durable). A mutation's prepare derives its snapshot from applied
// under the store lock, commit assigns the frames' LSNs, enqueues a ticket,
// and releases the lock before any I/O — that's what lets commits overlap.
// The group leader appends the batch's frames, fsyncs once, and only then
// publishes the batch's last snapshot. On an append/fsync failure the leader
// fails every queued ticket (their snapshots stack on doomed state), rolls
// applied back to the published snapshot and rewinds the LSN; the journal
// truncates the failed append away before the next leader writes.
// Readers therefore never observe a generation that could be lost to a
// crash, and the crash-recovery fuzz (wal_test.go) holds that any torn tail
// recovers to exactly the last fsynced commit. The in-memory store (NewStore)
// runs the same protocol with no log: its leader writes and fsyncs nothing.
//
// Checkpointing. Every CheckpointEvery commits (and on Checkpoint), the
// leader writes the current published snapshot through the atomic-rename
// writer with an "lsn=N" trailer field, then rotates the log: the journal
// atomically rewrites it to a header frame plus the live ingest records.
// Recovery loads the checkpoint (falling back to .prev as always) and
// replays only frames with lsn > checkpoint lsn, so every crash window —
// mid-append, mid-checkpoint, mid-rotation — lands on a consistent
// committed state. A catalog file with no WAL beside it (a file written by
// `epfis gen`, or by the rename-per-commit store of earlier releases) opens
// as a checkpoint at lsn 0 with an empty log.

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"maps"
	"path/filepath"
	"slices"
	"sync"

	"epfis/internal/faultfs"
	"epfis/internal/journal"
	"epfis/internal/stats"
)

// ErrClosed reports a mutation on a closed store.
var ErrClosed = errors.New("catalog: store is closed")

// WAL frame types.
const (
	walFrameHeader  byte = 0
	walFramePut     byte = 1
	walFrameDelete  byte = 2
	walFrameReplace byte = 3
	// walFrameIngest is an opaque ingest-journal record riding in the same
	// log: it never touches the catalog entry set, it just has to be durable
	// before the service acknowledges the batch it describes. Recovery hands
	// the payloads back through Store.IngestRecords; checkpoints carry the
	// still-live records into the rotated log (Store.SetIngestSource).
	walFrameIngest byte = 4
)

const (
	walHeaderMagic = "epfis-wal v1"
	// walBodyMeta is the body byte count before the payload: type + lsn.
	walBodyMeta = 1 + 8
)

// DefaultCheckpointEvery is the commit count between automatic checkpoints
// when WALOptions.CheckpointEvery is zero.
const DefaultCheckpointEvery = 256

// WALOptions configures OpenWAL.
type WALOptions struct {
	// Dir is the directory for the log file (named <catalog base>.wal).
	// Empty means alongside the catalog file.
	Dir string
	// CheckpointEvery is the number of committed mutations between automatic
	// checkpoints. Zero means DefaultCheckpointEvery; negative disables
	// automatic checkpoints (Checkpoint still works).
	CheckpointEvery int
}

// WALPath reports the log file for a catalog path under the given options.
func (o WALOptions) WALPath(catalogPath string) string {
	dir := o.Dir
	if dir == "" {
		dir = filepath.Dir(catalogPath)
	}
	return filepath.Join(dir, filepath.Base(catalogPath)+".wal")
}

// wal is the log state. lsn is guarded by Store.mu; log and durableLSN are
// touched only by the current group-commit leader (leadership hand-off
// through walQueue orders the accesses). The in-memory store's wal has no
// log and no path.
type wal struct {
	log  *journal.Log
	path string

	lsn        uint64 // last assigned LSN (Store.mu)
	durableLSN uint64 // last fsynced LSN (leader only)

	ingest [][]byte // ingest-journal payloads found during recovery
}

// walFrame is one log record a mutation's prepare asks commit to write; the
// LSN is assigned when the frame is enqueued.
type walFrame struct {
	ftype   byte
	payload []byte
}

// prepareFunc derives the next entry set from base — the newest applied
// snapshot — and names the frames that log the change. It runs under
// Store.mu, so it sees every mutation enqueued before it and none after.
// A nil entry set aborts the commit: nothing is logged or published.
type prepareFunc func(base *Snapshot) (map[string]*stats.IndexStats, []walFrame)

// walTicket is one enqueued commit awaiting durability. Ingest-journal
// tickets carry no snapshot.
type walTicket struct {
	bodies [][]byte
	snap   *Snapshot
	done   bool
	err    error
}

// walQueue is the group-commit rendezvous.
type walQueue struct {
	mu      sync.Mutex
	cond    *sync.Cond
	queue   []*walTicket
	syncing bool // a leader is writing/fsyncing (or holding for rotation)
}

// OpenWAL opens (or creates) the durable store for the catalog at path:
// append-only group-committed mutations with periodic checkpoints. Recovery
// loads the checkpoint — falling back to the retained .prev generation —
// and replays committed log frames past it; a torn tail (crash mid-append)
// is truncated at the last complete frame. Close the store when done.
func OpenWAL(path string, opts WALOptions) (*Store, error) {
	return OpenWALFS(path, opts, faultfs.OS())
}

// OpenWALFS is OpenWAL over an explicit filesystem — the injection point for
// fault-injected chaos tests and the EPFIS_FAULTS knob.
func OpenWALFS(path string, opts WALOptions, fsys faultfs.FS) (*Store, error) {
	ck, recovered, err := loadWithRecovery(fsys, path)
	if err != nil {
		return nil, err
	}
	entries := map[string]*stats.IndexStats{}
	gen := uint64(0)
	if ck.cat != nil {
		entries, gen = entriesOf(ck.cat), 1
	}

	r := &walReplay{snapLSN: ck.lsn, maxLSN: ck.lsn, entries: entries}
	w := &wal{path: opts.WALPath(path)}
	if w.log, err = journal.Open(fsys, w.path, r.accept); err != nil {
		return nil, fmt.Errorf("catalog: open wal: %w", err)
	}
	if !r.header {
		// Missing, empty, or unrecognizable log: start a fresh one.
		if err := w.log.Append(walBody(walFrameHeader, r.maxLSN, []byte(walHeaderMagic))); err != nil {
			w.log.Close()
			return nil, fmt.Errorf("catalog: write wal header: %w", err)
		}
	}
	gen += uint64(r.replayed)
	w.lsn, w.durableLSN, w.ingest = r.maxLSN, r.maxLSN, r.ingest

	every := opts.CheckpointEvery
	if every == 0 {
		every = DefaultCheckpointEvery
	}
	st := newStore(newSnapshot(gen, entries, nil), w, every)
	st.path, st.fs, st.recovered, st.ckptSum = path, fsys, recovered, ck.sum
	return st, nil
}

// WALPath reports the store's log file, or "" for an in-memory store.
func (st *Store) WALPath() string { return st.wal.path }

// walReplay folds a log's committed frames past the checkpoint LSN into
// entries and collects its ingest records; accept is the journal's scan
// callback, rejecting the first frame that is not a committed mutation.
type walReplay struct {
	snapLSN, maxLSN uint64
	entries         map[string]*stats.IndexStats
	replayed        int
	header          bool // the identity frame has been read
	ingest          [][]byte
}

func (r *walReplay) accept(body []byte) bool {
	if len(body) < walBodyMeta {
		return false
	}
	ftype, lsn, payload := body[0], binary.LittleEndian.Uint64(body[1:]), body[walBodyMeta:]
	switch {
	case !r.header:
		// The log must open with its identity frame; anything else means
		// the file is not (or no longer) a v1 WAL — replay nothing.
		r.header = ftype == walFrameHeader && string(payload) == walHeaderMagic
		return r.header
	case ftype == walFrameHeader:
		return false // a header mid-log is corruption
	case ftype == walFrameIngest:
		// Ingest records are collected regardless of the checkpoint LSN:
		// a checkpoint covers catalog state, not accumulator state, and
		// rotation re-stamps carried records with the checkpoint LSN.
		r.ingest = append(r.ingest, bytes.Clone(payload))
	case lsn <= r.snapLSN:
		return true // already in the checkpoint
	case !applyWALFrame(r.entries, ftype, payload):
		return false // undecodable committed frame: stop at the last good one
	default:
		r.replayed++
	}
	r.maxLSN = max(r.maxLSN, lsn)
	return true
}

// applyWALFrame folds one mutation frame into entries, reporting false when
// the payload does not decode to a valid mutation.
func applyWALFrame(entries map[string]*stats.IndexStats, ftype byte, payload []byte) bool {
	switch ftype {
	case walFramePut:
		var e stats.IndexStats
		if err := json.Unmarshal(payload, &e); err != nil || e.Validate() != nil {
			return false
		}
		entries[e.Key()] = &e
		return true
	case walFrameDelete:
		delete(entries, string(payload))
		return true
	case walFrameReplace:
		c, err := stats.Load(bytes.NewReader(payload))
		if err != nil {
			return false
		}
		clear(entries)
		maps.Copy(entries, entriesOf(c))
		return true
	default:
		return false
	}
}

// walBody encodes one frame body.
func walBody(ftype byte, lsn uint64, payload []byte) []byte {
	b := make([]byte, 0, walBodyMeta+len(payload))
	b = append(b, ftype)
	b = binary.LittleEndian.AppendUint64(b, lsn)
	return append(b, payload...)
}

// commit is the one mutation entry point: prepare derives the next entry set
// from the applied snapshot, and the commit rides (or drives) a group commit
// until its frames are durable and its snapshot is published. An aborted
// prepare returns (0, nil).
func (st *Store) commit(prepare prepareFunc) (uint64, error) {
	t, err := st.enqueue(prepare)
	if t == nil {
		return 0, err
	}
	if err := st.groupCommit(t); err != nil {
		return 0, err
	}
	return t.snap.gen, nil
}

// commitAsLeader is commit for a caller that already holds group-commit
// leadership (see lead): it flushes the batch itself instead of waiting.
func (st *Store) commitAsLeader(prepare prepareFunc) (uint64, error) {
	t, err := st.enqueue(prepare)
	if t == nil {
		return 0, err
	}
	st.flush()
	if t.err != nil {
		return 0, t.err
	}
	return t.snap.gen, nil
}

// enqueue runs prepare against applied state under st.mu, stacks the result
// as the new applied snapshot, and queues its frames. A nil ticket means the
// store is closed (with ErrClosed) or prepare aborted.
func (st *Store) enqueue(prepare prepareFunc) (*walTicket, error) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.closed {
		return nil, ErrClosed
	}
	base := st.applied
	entries, frames := prepare(base)
	if entries == nil {
		return nil, nil
	}
	t := &walTicket{snap: newSnapshot(base.gen+1, entries, base)}
	for _, f := range frames {
		st.wal.lsn++
		t.bodies = append(t.bodies, walBody(f.ftype, st.wal.lsn, f.payload))
	}
	st.applied = t.snap
	st.walQ.push(t)
	return t, nil
}

func (q *walQueue) push(t *walTicket) {
	q.mu.Lock()
	q.queue = append(q.queue, t)
	q.mu.Unlock()
}

// AppendIngest journals one opaque ingest record through the same
// group-committed log as catalog mutations: when it returns nil the record
// is fsynced and will be handed back by IngestRecords after a crash. It
// publishes no snapshot and bumps no generation — durability is the whole
// contract, which an in-memory store meets vacuously.
func (st *Store) AppendIngest(payload []byte) error {
	st.mu.Lock()
	if st.closed {
		st.mu.Unlock()
		return ErrClosed
	}
	st.wal.lsn++
	t := &walTicket{bodies: [][]byte{walBody(walFrameIngest, st.wal.lsn, payload)}}
	st.walQ.push(t)
	st.mu.Unlock()
	return st.groupCommit(t)
}

// IngestRecords returns the ingest-journal payloads recovered when the
// store was opened, oldest first. The service replays them through its
// accumulators at startup; records acknowledged before a crash are never
// lost. Nil for an in-memory store or when the log held none.
func (st *Store) IngestRecords() [][]byte {
	st.mu.Lock()
	defer st.mu.Unlock()
	return slices.Clone(st.wal.ingest)
}

// SetIngestSource registers the callback checkpoints use to learn which
// ingest records are still live (not yet folded into a published refit):
// rotation writes them into the fresh log so a crash after a checkpoint
// still replays them. A nil source (the default) carries nothing.
func (st *Store) SetIngestSource(fn func() [][]byte) {
	st.mu.Lock()
	st.ingestSrc = fn
	st.mu.Unlock()
}

// groupCommit waits for the ticket to become durable, becoming the flush
// leader if nobody else is. The leader flushes the whole queue, then wakes
// everyone — including the writers that enqueued during its fsync, the
// first of which leads the next batch.
func (st *Store) groupCommit(t *walTicket) error {
	q := &st.walQ
	q.mu.Lock()
	for !t.done && q.syncing {
		q.cond.Wait()
	}
	if t.done {
		q.mu.Unlock()
		return t.err
	}
	q.syncing = true
	q.mu.Unlock()

	if st.flush() {
		st.maybeCheckpoint()
	}
	q.release()
	return t.err
}

// lead runs fn as the group-commit leader, once the current leader is done:
// no batch is written and no checkpoint runs while fn does.
func (st *Store) lead(fn func() error) error {
	q := &st.walQ
	q.mu.Lock()
	for q.syncing {
		q.cond.Wait()
	}
	q.syncing = true
	q.mu.Unlock()
	defer q.release()
	return fn()
}

// release hands leadership on and wakes every waiter.
func (q *walQueue) release() {
	q.mu.Lock()
	q.syncing = false
	q.cond.Broadcast()
	q.mu.Unlock()
}

// flush drains the queue, writes every frame with one append and one fsync,
// publishes the batch's final snapshot (success) or rolls back (failure),
// and marks the tickets done. It reports whether the batch became durable.
// Leader only.
func (st *Store) flush() bool {
	q := &st.walQ
	q.mu.Lock()
	batch := q.queue
	q.queue = nil
	q.mu.Unlock()

	err := st.wal.writeBatch(batch)
	if err != nil {
		batch = append(batch, st.rollback(batch, err)...)
	} else {
		st.publish(batch)
	}
	q.mu.Lock()
	for _, t := range batch {
		t.done = true
	}
	q.mu.Unlock()
	return err == nil
}

// writeBatch appends every ticket's frames with one write and one fsync.
// The in-memory store has no log: its batches are durable as they stand.
// Leader only.
func (w *wal) writeBatch(batch []*walTicket) error {
	var bodies [][]byte
	for _, t := range batch {
		bodies = append(bodies, t.bodies...)
	}
	if len(bodies) == 0 {
		return nil
	}
	if w.log != nil {
		if err := w.log.Append(bodies...); err != nil {
			return fmt.Errorf("catalog: wal append: %w", err)
		}
	}
	w.durableLSN = binary.LittleEndian.Uint64(bodies[len(bodies)-1][1:])
	return nil
}

// publish advances the reader-visible snapshot to the batch's final (now
// durable) state. Ingest-journal tickets carry no snapshot, so the batch's
// last snapshot-bearing ticket wins (a batch may be all-ingest).
func (st *Store) publish(batch []*walTicket) {
	var last *Snapshot
	for i := len(batch) - 1; i >= 0; i-- {
		if batch[i].snap != nil {
			last = batch[i].snap
			break
		}
	}
	st.mu.Lock()
	if last != nil {
		if cur := st.snap.Load(); last.gen > cur.gen {
			st.snap.Store(last)
		}
	}
	st.sinceCheckpoint += len(batch)
	st.mu.Unlock()
}

// rollback fails the batch AND everything enqueued since it was taken (those
// tickets' snapshots build on state that never became durable), rolls
// applied back to the published snapshot, and rewinds the LSN. Returns the
// extra tickets so the leader can mark them done.
func (st *Store) rollback(batch []*walTicket, cause error) []*walTicket {
	st.mu.Lock()
	q := &st.walQ
	q.mu.Lock()
	extra := q.queue
	q.queue = nil
	q.mu.Unlock()
	st.applied = st.snap.Load()
	st.wal.lsn = st.wal.durableLSN
	st.mu.Unlock()
	for _, t := range batch {
		t.err = cause
	}
	for _, t := range extra {
		t.err = fmt.Errorf("catalog: commit depends on a failed group commit: %w", cause)
	}
	return extra
}

// maybeCheckpoint runs an automatic checkpoint when enough commits have
// accumulated. Leader only (st.mu NOT held).
func (st *Store) maybeCheckpoint() {
	st.mu.Lock()
	due := st.checkpointEvery > 0 && st.sinceCheckpoint >= st.checkpointEvery
	st.mu.Unlock()
	if due {
		// Best effort: the commits themselves are durable in the log either
		// way; a failed checkpoint just leaves a longer log to replay.
		_ = st.checkpointAsLeader()
	}
}

// Checkpoint writes the current published snapshot as the checkpoint file
// and rotates the log. It runs as a group-commit leader, so it never races
// an append.
func (st *Store) Checkpoint() error {
	if st.path == "" {
		return ErrNoPath
	}
	return st.lead(st.checkpointAsLeader)
}

// checkpointAsLeader does the checkpoint + rotation. Caller holds
// leadership (walQ.syncing).
func (st *Store) checkpointAsLeader() error {
	w := st.wal
	data, err := encodeCheckpoint(st.snap.Load(), w.durableLSN)
	if err != nil {
		return err
	}
	placed, err := writeAtomicLSN(st.fs, st.path, data)
	st.mu.Lock()
	if placed {
		// Reload must know these bytes for the store's own.
		st.ckptSum = crc32.Checksum(data, crcTable)
	}
	src := st.ingestSrc
	st.mu.Unlock()
	if err != nil {
		return err
	}
	var carry [][]byte
	if src != nil {
		carry = src()
	}
	// Rotation: carried ingest records are stamped with the checkpoint LSN
	// — they ride below the replay threshold on purpose, since recovery
	// collects ingest frames unconditionally.
	bodies := [][]byte{walBody(walFrameHeader, w.durableLSN, []byte(walHeaderMagic))}
	for _, p := range carry {
		bodies = append(bodies, walBody(walFrameIngest, w.durableLSN, p))
	}
	if err := w.log.Rewrite(bodies); err != nil {
		return fmt.Errorf("catalog: rotate wal: %w", err)
	}
	st.mu.Lock()
	st.sinceCheckpoint = 0
	st.mu.Unlock()
	return nil
}

// Close waits out the current leader, closes the log handle, and fails
// subsequent mutations with ErrClosed. Reads keep serving the last
// published snapshot.
func (st *Store) Close() error {
	return st.lead(func() error {
		st.mu.Lock()
		st.closed = true
		st.mu.Unlock()
		if st.wal.log == nil {
			return nil
		}
		return st.wal.log.Close()
	})
}

// WALStats is a point-in-time view of the log state, for observability and
// tests.
type WALStats struct {
	LSN             uint64 // last assigned LSN
	DurableLSN      uint64 // last fsynced LSN
	SinceCheckpoint int    // commits since the last checkpoint
}

// WALStatsNow reports the current log state.
func (st *Store) WALStatsNow() WALStats {
	st.mu.Lock()
	defer st.mu.Unlock()
	return WALStats{
		LSN:             st.wal.lsn,
		DurableLSN:      st.wal.durableLSN,
		SinceCheckpoint: st.sinceCheckpoint,
	}
}
