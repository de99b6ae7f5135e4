package catalog

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"epfis/internal/faultfs"
	"epfis/internal/stats"
)

// openAt opens the durable store at path (over fsys, or the real filesystem
// when nil) and closes it when the test ends.
func openAt(t testing.TB, path string, fsys faultfs.FS) *Store {
	t.Helper()
	if fsys == nil {
		fsys = faultfs.OS()
	}
	st, err := OpenWALFS(path, WALOptions{CheckpointEvery: -1}, fsys)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	return st
}

// put installs entry(table, column, fmin) or fails the test.
func put(t testing.TB, st *Store, table, column string, fmin int64) {
	t.Helper()
	if _, err := st.Put(entry(table, column, fmin)); err != nil {
		t.Fatal(err)
	}
}

// checkpointed forces a checkpoint or fails the test.
func checkpointed(t testing.TB, st *Store) {
	t.Helper()
	if err := st.Checkpoint(); err != nil {
		t.Fatal(err)
	}
}

// openedWith builds a store whose two checkpoints differ: the main file
// holds orders.key and lineitem.partkey, the retained .prev only orders.key.
func openedWith(t *testing.T, path string) *Store {
	t.Helper()
	st := openAt(t, path, nil)
	put(t, st, "orders", "key", 500)
	checkpointed(t, st)
	put(t, st, "lineitem", "partkey", 600)
	checkpointed(t, st)
	return st
}

func TestWriteLeavesPrevGeneration(t *testing.T) {
	path := filepath.Join(t.TempDir(), "catalog.json")
	openedWith(t, path)

	// Main file holds both entries; .prev holds the one-entry generation.
	main, err := loadVerified(faultfs.OS(), path)
	if err != nil {
		t.Fatal(err)
	}
	if main.cat.Len() != 2 {
		t.Fatalf("main has %d entries", main.cat.Len())
	}
	prev, err := loadVerified(faultfs.OS(), PrevPath(path))
	if err != nil {
		t.Fatalf("no retained previous generation: %v", err)
	}
	if prev.cat.Len() != 1 {
		t.Fatalf("prev has %d entries, want 1", prev.cat.Len())
	}
}

func TestTrailerDetectsBitFlip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "catalog.json")
	st := openAt(t, path, nil)
	put(t, st, "orders", "key", 500)
	checkpointed(t, st)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip one digit inside the JSON payload: still valid JSON, still a
	// valid entry — only the checksum can notice.
	i := bytes.Index(data, []byte(`"pages": 100`))
	if i < 0 {
		t.Fatalf("payload layout changed:\n%s", data)
	}
	data[i+len(`"pages": 10`)] = '1'
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := loadVerified(faultfs.OS(), path); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("bit-flipped load err = %v, want ErrCorrupt", err)
	}
}

func TestOpenRecoversFromCorruptMain(t *testing.T) {
	for _, tc := range []struct {
		name    string
		corrupt func(t *testing.T, path string)
	}{
		{"truncated", func(t *testing.T, path string) {
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, data[:len(data)/2], 0o644); err != nil {
				t.Fatal(err)
			}
		}},
		{"zero-length", func(t *testing.T, path string) {
			if err := os.WriteFile(path, nil, 0o644); err != nil {
				t.Fatal(err)
			}
		}},
		{"bit-flipped", func(t *testing.T, path string) {
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			data[len(data)/3] ^= 0x40
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
		}},
		{"missing-after-crash", func(t *testing.T, path string) {
			if err := os.Remove(path); err != nil {
				t.Fatal(err)
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "catalog.json")
			openedWith(t, path).Close()
			tc.corrupt(t, path)

			st, err := OpenWAL(path, WALOptions{})
			if err != nil {
				t.Fatalf("OpenWAL did not recover: %v", err)
			}
			defer st.Close()
			if !st.Recovered() {
				t.Fatal("Recovered() = false after fallback")
			}
			// The .prev generation held only orders.key.
			if st.Len() != 1 {
				t.Fatalf("recovered %d entries, want 1", st.Len())
			}
			if _, err := st.Get("orders", "key"); err != nil {
				t.Fatalf("recovered store missing orders.key: %v", err)
			}
			// The recovered store must be writable again.
			if _, err := st.Put(entry("fresh", "col", 700)); err != nil {
				t.Fatalf("Put after recovery: %v", err)
			}
		})
	}
}

func TestOpenErrorsWhenMainAndPrevCorrupt(t *testing.T) {
	path := filepath.Join(t.TempDir(), "catalog.json")
	openedWith(t, path).Close()
	for _, p := range []string{path, PrevPath(path)} {
		if err := os.WriteFile(p, []byte("not a catalog"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if st, err := OpenWAL(path, WALOptions{}); err == nil {
		st.Close()
		t.Fatal("OpenWAL accepted a catalog with both generations corrupt")
	}
}

func TestOpenMissingBothStartsEmpty(t *testing.T) {
	st := openAt(t, filepath.Join(t.TempDir(), "catalog.json"), nil)
	if st.Len() != 0 || st.Recovered() {
		t.Fatalf("fresh store: len=%d recovered=%v", st.Len(), st.Recovered())
	}
}

func TestLegacyFileWithoutTrailerLoads(t *testing.T) {
	path := filepath.Join(t.TempDir(), "catalog.json")
	c := stats.NewCatalog()
	if err := c.Put(entry("orders", "key", 500)); err != nil {
		t.Fatal(err)
	}
	if err := c.SaveFile(path); err != nil { // plain stats format, no trailer
		t.Fatal(err)
	}
	st := openAt(t, path, nil)
	if st.Len() != 1 || st.Recovered() {
		t.Fatalf("legacy load: len=%d recovered=%v", st.Len(), st.Recovered())
	}
}

// TestRenameStoreDirectoryMigrates opens a directory written by the
// rename-per-commit store of earlier releases (a trailered catalog.json
// without an lsn field, its .prev, and no log): the WAL store must serve
// exactly the main file's entries and keep them across further commits
// and a restart.
func TestRenameStoreDirectoryMigrates(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "catalog.json")
	for _, name := range []string{"catalog.json", "catalog.json.prev"} {
		data, err := os.ReadFile(filepath.Join("testdata", "rename-store", name))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := stats.LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	sameAsFile := func(st *Store, extra int) {
		t.Helper()
		if st.Recovered() || st.Len() != want.Len()+extra {
			t.Fatalf("migrated store: len=%d recovered=%v, want len %d", st.Len(), st.Recovered(), want.Len()+extra)
		}
		for _, k := range want.Keys() {
			w, _ := want.Get(splitKey(k))
			got, err := st.Get(splitKey(k))
			if err != nil {
				t.Fatal(err)
			}
			wp, _ := entryPayload(w)
			gp, _ := entryPayload(got)
			if !bytes.Equal(wp, gp) {
				t.Fatalf("entry %s differs after migration:\n%s\nwant\n%s", k, gp, wp)
			}
		}
	}

	st, err := OpenWAL(path, WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	sameAsFile(st, 0)
	if _, err := st.Put(entry("fresh", "col", 700)); err != nil {
		t.Fatal(err)
	}
	st.Close()
	re := openAt(t, path, nil)
	sameAsFile(re, 1)
}

func TestTraileredFileLoadsWithPlainStatsLoader(t *testing.T) {
	path := filepath.Join(t.TempDir(), "catalog.json")
	openedWith(t, path)
	c, err := stats.LoadFile(path)
	if err != nil {
		t.Fatalf("stats.LoadFile on trailered file: %v", err)
	}
	if c.Len() != 2 {
		t.Fatalf("len = %d", c.Len())
	}
}

// TestCommitAbortsOnInjectedWriteFaults arms a persistent fault on each
// write-path operation class. A commit either aborts whole — the published
// view unchanged — or is acknowledged and durable; a checkpoint under the
// fault fails and leaves the last good generation on disk.
func TestCommitAbortsOnInjectedWriteFaults(t *testing.T) {
	for _, op := range []faultfs.Op{
		faultfs.OpCreate, faultfs.OpWrite, faultfs.OpSync,
		faultfs.OpClose, faultfs.OpRename, faultfs.OpSyncDir,
	} {
		t.Run(string(op), func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "catalog.json")
			inj := faultfs.NewInjector(faultfs.OS(), 1)
			st := openAt(t, path, inj)
			put(t, st, "orders", "key", 500)
			checkpointed(t, st)

			inj.Add(faultfs.Rule{Op: op, Count: -1})
			_, err := st.Put(entry("lineitem", "partkey", 600))
			acked := err == nil
			if !acked {
				if !errors.Is(err, faultfs.ErrInjected) {
					t.Fatalf("Put under %s fault = %v, want ErrInjected", op, err)
				}
				// In-memory view unchanged: the commit aborted whole.
				if st.Len() != 1 || st.Generation() != 1 {
					t.Fatalf("store mutated by failed commit: len=%d gen=%d", st.Len(), st.Generation())
				}
			}
			if err := st.Checkpoint(); !errors.Is(err, faultfs.ErrInjected) {
				t.Fatalf("Checkpoint under %s fault = %v, want ErrInjected", op, err)
			}
			inj.Reset()
			st.Close()

			// On-disk state still serves the last good generation, plus the
			// acknowledged commit.
			st2 := openAt(t, path, nil)
			if _, err := st2.Get("orders", "key"); err != nil {
				t.Fatalf("last good generation lost after %s fault: %v", op, err)
			}
			if _, err := st2.Get("lineitem", "partkey"); acked && err != nil {
				t.Fatalf("acknowledged commit lost after %s fault: %v", op, err)
			}
		})
	}
}

func TestPartialWriteNeverPublishes(t *testing.T) {
	path := filepath.Join(t.TempDir(), "catalog.json")
	inj := faultfs.NewInjector(faultfs.OS(), 1)
	st := openAt(t, path, inj)
	put(t, st, "orders", "key", 500)
	checkpointed(t, st)
	put(t, st, "lineitem", "partkey", 600)
	inj.Add(faultfs.Rule{Op: faultfs.OpWrite, Mode: faultfs.ModePartial})
	if err := st.Checkpoint(); !errors.Is(err, faultfs.ErrInjected) {
		t.Fatalf("torn checkpoint write err = %v", err)
	}
	inj.Reset()
	ck, err := loadVerified(faultfs.OS(), path)
	if err != nil {
		t.Fatalf("main file damaged by torn temp write: %v", err)
	}
	if ck.cat.Len() != 1 {
		t.Fatalf("main file has %d entries", ck.cat.Len())
	}
	// The commit the torn checkpoint missed is still durable in the log.
	st.Close()
	if _, err := openAt(t, path, nil).Get("lineitem", "partkey"); err != nil {
		t.Fatalf("commit lost with the torn checkpoint: %v", err)
	}
}

func TestFsyncHappensBeforeRename(t *testing.T) {
	path := filepath.Join(t.TempDir(), "catalog.json")
	inj := faultfs.NewInjector(faultfs.OS(), 1)
	st := openAt(t, path, inj)
	put(t, st, "orders", "key", 500)
	from := len(inj.Trace())
	checkpointed(t, st)
	var syncAt, renameAt, dirSyncAt int
	for i, e := range inj.Trace()[from:] {
		op := strings.Fields(e)[0]
		switch {
		case op == "sync" && syncAt == 0:
			syncAt = i + 1
		case op == "rename" && renameAt == 0:
			renameAt = i + 1
		case op == "syncdir" && dirSyncAt == 0:
			dirSyncAt = i + 1
		}
	}
	if syncAt == 0 || renameAt == 0 || dirSyncAt == 0 {
		t.Fatalf("trace missing sync/rename/syncdir: %v", inj.Trace())
	}
	if !(syncAt < renameAt && renameAt < dirSyncAt) {
		t.Fatalf("durability order violated: sync@%d rename@%d syncdir@%d", syncAt, renameAt, dirSyncAt)
	}
}

func TestReloadRejectsCorruptFileAndKeepsSnapshot(t *testing.T) {
	path := filepath.Join(t.TempDir(), "catalog.json")
	st := openedWith(t, path)
	gen := st.Generation()

	if err := os.WriteFile(path, []byte(`{"version":1,"entries":[`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Reload(); err == nil {
		t.Fatal("Reload accepted a corrupt file")
	}
	if st.Generation() != gen || st.Len() != 2 {
		t.Fatalf("snapshot changed by failed reload: gen=%d len=%d", st.Generation(), st.Len())
	}
	if _, err := st.Get("orders", "key"); err != nil {
		t.Fatal("last good snapshot lost after failed reload")
	}
}
