package catalog

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"epfis/internal/core"
	"epfis/internal/curvefit"
	"epfis/internal/stats"
)

// entry builds a valid catalog entry by hand; fmin lets tests vary the curve
// so concurrent readers can observe distinct generations.
func entry(table, column string, fmin int64) *stats.IndexStats {
	return &stats.IndexStats{
		Table:  table,
		Column: column,
		T:      100,
		N:      1000,
		I:      100,
		BMin:   12,
		BMax:   100,
		FMin:   fmin,
		C:      0.5,
		Curve: curvefit.PolyLine{Knots: []curvefit.Point{
			{X: 12, Y: float64(fmin)},
			{X: 100, Y: 100},
		}},
		GridPoints:  2,
		CollectedAt: time.Unix(0, 0).UTC(),
	}
}

func TestStoreBasics(t *testing.T) {
	st := NewStore()
	if st.Generation() != 0 || st.Len() != 0 {
		t.Fatalf("empty store gen=%d len=%d", st.Generation(), st.Len())
	}
	if _, err := st.Get("orders", "key"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Get on empty store err = %v, want ErrNotFound", err)
	}

	gen, err := st.Put(entry("orders", "key", 500))
	if err != nil {
		t.Fatal(err)
	}
	if gen != 1 || st.Generation() != 1 {
		t.Fatalf("after first Put gen = %d / %d, want 1", gen, st.Generation())
	}
	if _, err := st.Put(entry("orders", "custno", 600)); err != nil {
		t.Fatal(err)
	}
	if got := st.Keys(); len(got) != 2 || got[0] != "orders.custno" || got[1] != "orders.key" {
		t.Fatalf("Keys = %v", got)
	}

	e, err := st.Get("orders", "key")
	if err != nil {
		t.Fatal(err)
	}
	if e.FMin != 500 {
		t.Fatalf("FMin = %d, want 500", e.FMin)
	}

	// Put validates.
	bad := entry("x", "y", 500)
	bad.T = 0
	if _, err := st.Put(bad); err == nil {
		t.Fatal("Put of invalid entry succeeded")
	}

	ok, gen, err := st.Delete("orders", "key")
	if err != nil || !ok {
		t.Fatalf("Delete = (%v, %v)", ok, err)
	}
	if gen != 3 || st.Len() != 1 {
		t.Fatalf("after delete gen=%d len=%d", gen, st.Len())
	}
	// Deleting a missing entry is a generation-preserving no-op.
	ok, gen, err = st.Delete("orders", "key")
	if err != nil || ok || gen != 3 {
		t.Fatalf("second Delete = (%v, %d, %v)", ok, gen, err)
	}
}

func TestSnapshotIsolation(t *testing.T) {
	st := NewStore()
	if _, err := st.Put(entry("t", "a", 500)); err != nil {
		t.Fatal(err)
	}
	old := st.Snapshot()
	if _, err := st.Put(entry("t", "b", 600)); err != nil {
		t.Fatal(err)
	}
	if old.Len() != 1 || old.Generation() != 1 {
		t.Fatalf("old snapshot mutated: len=%d gen=%d", old.Len(), old.Generation())
	}
	if st.Snapshot().Len() != 2 {
		t.Fatalf("new snapshot len = %d", st.Snapshot().Len())
	}
}

func TestPutDeepCopies(t *testing.T) {
	st := NewStore()
	mine := entry("t", "a", 500)
	if _, err := st.Put(mine); err != nil {
		t.Fatal(err)
	}
	mine.Curve.Knots[0].Y = -1 // caller keeps mutating its copy
	mine.FMin = -1
	got, err := st.Get("t", "a")
	if err != nil {
		t.Fatal(err)
	}
	if got.FMin != 500 || got.Curve.Knots[0].Y != 500 {
		t.Fatalf("stored entry aliases caller memory: %+v", got)
	}
}

func TestPersistenceRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "catalog.json")
	st := openAt(t, path, nil)
	if st.Len() != 0 {
		t.Fatalf("missing file should open empty, len = %d", st.Len())
	}
	put(t, st, "orders", "key", 500)
	put(t, st, "orders", "custno", 600)
	checkpointed(t, st)

	// No stray temp files after atomic renames.
	names, err := os.ReadDir(filepath.Dir(path))
	if err != nil {
		t.Fatal(err)
	}
	for _, de := range names {
		if strings.HasSuffix(de.Name(), ".tmp") {
			t.Fatalf("leftover temp file %s", de.Name())
		}
	}
	st.Close()

	re := openAt(t, path, nil)
	if re.Len() != 2 || re.Generation() != 1 {
		t.Fatalf("reopened store len=%d gen=%d", re.Len(), re.Generation())
	}
	e, err := re.Get("orders", "key")
	if err != nil {
		t.Fatal(err)
	}
	if e.FMin != 500 {
		t.Fatalf("reloaded FMin = %d", e.FMin)
	}
}

// TestReload refreshes the catalog file out-of-band over an uncheckpointed
// log tail: Reload must adopt the file exactly (the tail must not be
// replayed over it), keep it across a restart, and treat the unchanged file
// as nothing new afterwards.
func TestReload(t *testing.T) {
	path := filepath.Join(t.TempDir(), "catalog.json")
	st := openAt(t, path, nil)
	put(t, st, "orders", "key", 500)

	// Refresh the file out-of-band, as an external LRU-Fit run would.
	c := stats.NewCatalog()
	if err := c.Put(entry("orders", "key", 777)); err != nil {
		t.Fatal(err)
	}
	if err := c.Put(entry("lineitem", "partkey", 650)); err != nil {
		t.Fatal(err)
	}
	if err := c.SaveFile(path); err != nil {
		t.Fatal(err)
	}

	fmin := func(st *Store) int64 {
		t.Helper()
		e, err := st.Get("orders", "key")
		if err != nil {
			t.Fatal(err)
		}
		return e.FMin
	}
	gen, err := st.Reload()
	if err != nil {
		t.Fatal(err)
	}
	if gen != 2 || st.Len() != 2 {
		t.Fatalf("after reload gen=%d len=%d", gen, st.Len())
	}
	if got := fmin(st); got != 777 {
		t.Fatalf("reload did not swap entry: FMin = %d", got)
	}

	st.Close()
	re := openAt(t, path, nil)
	if got := fmin(re); re.Len() != 2 || got != 777 {
		t.Fatalf("after restart len=%d FMin=%d, want 2 and 777", re.Len(), got)
	}
	// The file is the store's own again: a later reload keeps later commits.
	put(t, re, "orders", "key", 888)
	if _, err := re.Reload(); err != nil {
		t.Fatal(err)
	}
	if got := fmin(re); got != 888 {
		t.Fatalf("reload of the unchanged file dropped a commit: FMin = %d", got)
	}

	if _, err := NewStore().Reload(); !errors.Is(err, ErrNoPath) {
		t.Fatalf("Reload on in-memory store err = %v, want ErrNoPath", err)
	}
}

func TestReplaceAll(t *testing.T) {
	st := NewStore()
	if _, err := st.Put(entry("old", "gone", 500)); err != nil {
		t.Fatal(err)
	}
	c := stats.NewCatalog()
	if err := c.Put(entry("new", "a", 500)); err != nil {
		t.Fatal(err)
	}
	if err := c.Put(entry("new", "b", 600)); err != nil {
		t.Fatal(err)
	}
	gen, err := st.ReplaceAll(c)
	if err != nil {
		t.Fatal(err)
	}
	if gen != 2 || st.Len() != 2 {
		t.Fatalf("after ReplaceAll gen=%d len=%d", gen, st.Len())
	}
	if _, err := st.Get("old", "gone"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("old entry survived ReplaceAll: %v", err)
	}
}

// TestConcurrentReadersAndWriter is the subsystem's race test: many reader
// goroutines hammer Get + Est-IO against the store while one writer installs
// fresh statistics and periodically reloads from disk. Run with -race.
func TestConcurrentReadersAndWriter(t *testing.T) {
	st := openAt(t, filepath.Join(t.TempDir(), "catalog.json"), nil)
	put(t, st, "orders", "key", 500)

	const (
		readers      = 8
		writerRounds = 60
	)
	done := make(chan struct{})
	var wg sync.WaitGroup

	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				snap := st.Snapshot()
				e, err := snap.Get("orders", "key")
				if err != nil {
					t.Errorf("reader Get: %v", err)
					return
				}
				f, err := core.EstimateFetches(e, 50, 0.1, 1)
				if err != nil {
					t.Errorf("reader estimate: %v", err)
					return
				}
				if f < 0 {
					t.Errorf("estimate = %g", f)
					return
				}
			}
		}()
	}

	for i := 0; i < writerRounds; i++ {
		fmin := int64(400 + i)
		if _, err := st.Put(entry("orders", "key", fmin)); err != nil {
			t.Errorf("writer Put: %v", err)
			break
		}
		if _, err := st.Put(entry("lineitem", "partkey", fmin)); err != nil {
			t.Errorf("writer Put: %v", err)
			break
		}
		if i%10 == 9 {
			if _, err := st.Reload(); err != nil {
				t.Errorf("writer Reload: %v", err)
				break
			}
		}
	}
	close(done)
	wg.Wait()

	if g := st.Generation(); g < writerRounds {
		t.Fatalf("generation = %d after %d writer rounds", g, writerRounds)
	}
}
