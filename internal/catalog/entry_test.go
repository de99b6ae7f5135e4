package catalog

// Single-entry export/merge and per-entry digest coverage — the catalog
// primitives under delta anti-entropy.

import (
	"errors"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"epfis/internal/faultfs"
)

func TestExportEntryRoundTrip(t *testing.T) {
	src := NewStore()
	if _, err := src.Put(entry("orders", "key", 500)); err != nil {
		t.Fatal(err)
	}
	if _, err := src.Put(entry("orders", "custno", 600)); err != nil {
		t.Fatal(err)
	}
	data, gen, err := src.ExportEntry("orders.key")
	if err != nil {
		t.Fatal(err)
	}
	if gen != src.Generation() {
		t.Fatalf("ExportEntry gen = %d, want %d", gen, src.Generation())
	}
	if _, _, err := src.ExportEntry("orders.nope"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("ExportEntry on missing key err = %v, want ErrNotFound", err)
	}

	dst := NewStore()
	if _, err := dst.Put(entry("orders", "other", 700)); err != nil {
		t.Fatal(err)
	}
	if _, err := dst.MergeEntries([][]byte{data}, nil); err != nil {
		t.Fatal(err)
	}
	if dst.Len() != 2 {
		t.Fatalf("after MergeEntries len = %d, want 2 (union, no deletes)", dst.Len())
	}
	got, err := dst.Get("orders", "key")
	if err != nil {
		t.Fatal(err)
	}
	if got.FMin != 500 {
		t.Fatalf("merged entry FMin = %d, want 500", got.FMin)
	}
}

func TestMergeEntriesRejectsCorruptStream(t *testing.T) {
	src := NewStore()
	if _, err := src.Put(entry("orders", "key", 500)); err != nil {
		t.Fatal(err)
	}
	data, _, err := src.ExportEntry("orders.key")
	if err != nil {
		t.Fatal(err)
	}
	dst := NewStore()
	// No trailer at all: network transfers get no legacy grace.
	if _, err := dst.MergeEntries([][]byte{[]byte(`{"version":1,"entries":[]}`)}, nil); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("trailerless stream err = %v, want ErrCorrupt", err)
	}
	// Flip a payload byte: the trailer CRC must catch it.
	bad := append([]byte(nil), data...)
	bad[10] ^= 0x40
	if _, err := dst.MergeEntries([][]byte{bad}, nil); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("corrupted stream err = %v, want ErrCorrupt", err)
	}
	if dst.Generation() != 0 {
		t.Fatalf("failed merges must not commit, gen = %d", dst.Generation())
	}
}

func TestMergeEntriesSkipAndNoop(t *testing.T) {
	src := NewStore()
	if _, err := src.Put(entry("orders", "key", 500)); err != nil {
		t.Fatal(err)
	}
	data, _, err := src.ExportEntry("orders.key")
	if err != nil {
		t.Fatal(err)
	}
	dst := NewStore()
	if _, err := dst.Put(entry("orders", "key", 111)); err != nil {
		t.Fatal(err)
	}
	before := dst.Generation()
	gen, err := dst.MergeEntries([][]byte{data}, func(k string) bool { return k == "orders.key" })
	if err != nil {
		t.Fatal(err)
	}
	if gen != before {
		t.Fatalf("fully skipped merge bumped generation %d -> %d", before, gen)
	}
	got, _ := dst.Get("orders", "key")
	if got.FMin != 111 {
		t.Fatalf("skipped key was overwritten, FMin = %d", got.FMin)
	}
	if gen, err := dst.MergeEntries(nil, nil); err != nil || gen != before {
		t.Fatalf("empty merge = (%d, %v), want (%d, nil)", gen, err, before)
	}
}

func TestEntryDigestsMatchContent(t *testing.T) {
	a, b := NewStore(), NewStore()
	for _, st := range []struct {
		col  string
		fmin int64
	}{{"key", 500}, {"custno", 600}} {
		if _, err := a.Put(entry("orders", st.col, st.fmin)); err != nil {
			t.Fatal(err)
		}
		if _, err := b.Put(entry("orders", st.col, st.fmin)); err != nil {
			t.Fatal(err)
		}
	}
	da, _, err := a.EntryDigests()
	if err != nil {
		t.Fatal(err)
	}
	db, _, err := b.EntryDigests()
	if err != nil {
		t.Fatal(err)
	}
	if len(da) != 2 || len(db) != 2 {
		t.Fatalf("digest sizes %d/%d, want 2/2", len(da), len(db))
	}
	for k, v := range da {
		if db[k] != v {
			t.Fatalf("identical entries digest differently for %s: %08x vs %08x", k, v, db[k])
		}
	}
	// A divergent entry must change exactly its own digest.
	if _, err := b.Put(entry("orders", "key", 999)); err != nil {
		t.Fatal(err)
	}
	db2, _, err := b.EntryDigests()
	if err != nil {
		t.Fatal(err)
	}
	if db2["orders.key"] == da["orders.key"] {
		t.Fatal("mutated entry kept its digest")
	}
	if db2["orders.custno"] != da["orders.custno"] {
		t.Fatal("untouched entry changed digest")
	}
}

// TestMergeKeepsConcurrentCommit is the merge lost-update regression: a Put
// that lands while a merge is under way must survive the merge. The skip
// callback fires the Put and waits up to 200 ms for its acknowledgement. On
// the WAL store the Put's fsync is slowed past that wait, so a merge built
// on the published snapshot would also drop a Put still in group commit.
func TestMergeKeepsConcurrentCommit(t *testing.T) {
	src := NewStore()
	put(t, src, "lineitem", "partkey", 650)
	snap, _, err := src.ExportSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	stream, _, err := src.ExportEntry("lineitem.partkey")
	if err != nil {
		t.Fatal(err)
	}
	merges := []struct {
		name  string
		merge func(st *Store, skip func(string) bool) (uint64, error)
	}{
		{"MergeSnapshot", func(st *Store, skip func(string) bool) (uint64, error) {
			return st.MergeSnapshot(snap, skip)
		}},
		{"MergeEntries", func(st *Store, skip func(string) bool) (uint64, error) {
			return st.MergeEntries([][]byte{stream}, skip)
		}},
	}
	for _, m := range merges {
		for _, onWAL := range []bool{false, true} {
			name := m.name + "/memory"
			if onWAL {
				name = m.name + "/wal"
			}
			t.Run(name, func(t *testing.T) {
				st := NewStore()
				var inj *faultfs.Injector
				path := filepath.Join(t.TempDir(), "catalog.json")
				if onWAL {
					inj = faultfs.NewInjector(faultfs.OS(), 1)
					st = openAt(t, path, inj)
				}
				put(t, st, "orders", "key", 500)
				if inj != nil {
					inj.Add(faultfs.Rule{Op: faultfs.OpSync, Path: ".wal", Count: 1,
						Mode: faultfs.ModeSlow, Delay: 800 * time.Millisecond})
				}

				acked := make(chan error, 1)
				var once sync.Once
				skip := func(string) bool {
					once.Do(func() {
						go func() {
							_, err := st.Put(entry("orders", "key", 777))
							acked <- err
						}()
						select {
						case err := <-acked:
							acked <- err
						case <-time.After(200 * time.Millisecond):
						}
					})
					return false
				}
				if _, err := m.merge(st, skip); err != nil {
					t.Fatal(err)
				}
				if err := <-acked; err != nil {
					t.Fatalf("concurrent Put: %v", err)
				}
				check := func(st *Store, when string) {
					t.Helper()
					e, err := st.Get("orders", "key")
					if err != nil {
						t.Fatal(err)
					}
					if e.FMin != 777 {
						t.Fatalf("%s: acknowledged Put lost to the merge: FMin = %d, want 777", when, e.FMin)
					}
					if _, err := st.Get("lineitem", "partkey"); err != nil {
						t.Fatalf("%s: merged entry missing: %v", when, err)
					}
				}
				check(st, "after merge")
				if onWAL {
					st.Close()
					check(openAt(t, path, nil), "after restart")
				}
			})
		}
	}
}

// TestMergeLogsOnePutPerChangedKey: a merge logs one put frame per key it
// changes — not a whole-catalog replace — and a merge that changes nothing
// logs nothing and keeps the generation.
func TestMergeLogsOnePutPerChangedKey(t *testing.T) {
	src := NewStore()
	put(t, src, "orders", "key", 500)
	put(t, src, "orders", "custno", 600)
	snap, _, err := src.ExportSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	st := openAt(t, filepath.Join(t.TempDir(), "catalog.json"), nil)
	put(t, st, "orders", "key", 500) // already identical to the stream's
	put(t, st, "local", "only", 700)
	lsn := st.WALStatsNow().LSN
	if _, err := st.MergeSnapshot(snap, nil); err != nil {
		t.Fatal(err)
	}
	if got := st.WALStatsNow().LSN - lsn; got != 1 {
		t.Fatalf("merge changing one key logged %d frames, want 1", got)
	}
	if st.Len() != 3 {
		t.Fatalf("after merge len = %d, want 3 (union, no deletes)", st.Len())
	}
	gen, lsn := st.Generation(), st.WALStatsNow().LSN
	if g, err := st.MergeSnapshot(snap, nil); err != nil || g != gen || st.WALStatsNow().LSN != lsn {
		t.Fatalf("no-op merge = (%d, %v), lsn %d -> %d; want gen %d and no frame", g, err, lsn, st.WALStatsNow().LSN, gen)
	}
}
