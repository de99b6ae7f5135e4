package journal

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"epfis/internal/faultfs"
)

// openAll opens the log at path, returning the recovered bodies.
func openAll(t testing.TB, fsys faultfs.FS, path string) (*Log, [][]byte) {
	t.Helper()
	var got [][]byte
	l, err := Open(fsys, path, func(b []byte) bool {
		got = append(got, bytes.Clone(b))
		return true
	})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	return l, got
}

// mustAppend appends bodies to a fresh log at path and closes it.
func mustAppend(t testing.TB, path string, bodies ...[]byte) {
	t.Helper()
	l, _ := openAll(t, faultfs.OS(), path)
	for _, b := range bodies {
		if err := l.Append(b); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
}

func equalBodies(a, b [][]byte) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !bytes.Equal(a[i], b[i]) {
			return false
		}
	}
	return true
}

func testBodies() [][]byte {
	return [][]byte{[]byte("a"), []byte(`{"key":"t.c","epoch":7}`), bytes.Repeat([]byte{0}, 19), []byte("last body")}
}

// frameEnd reports the byte offset after each body's frame.
func frameEnds(bodies [][]byte) []int {
	ends := []int{0}
	for _, b := range bodies {
		ends = append(ends, ends[len(ends)-1]+frameMeta+len(b))
	}
	return ends
}

func TestOpenEveryByteCut(t *testing.T) {
	// Cut an appended log at every byte: Open must return exactly the bodies
	// whose frames fit whole, truncate the file to them, and an Append after
	// recovery must reopen as that prefix plus the new body.
	dir := t.TempDir()
	path := filepath.Join(dir, "cut.log")
	bodies := testBodies()
	mustAppend(t, path, bodies...)
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	ends := frameEnds(bodies)
	if len(full) != ends[len(ends)-1] {
		t.Fatalf("log is %d bytes, want %d", len(full), ends[len(ends)-1])
	}
	for cut := 0; cut <= len(full); cut++ {
		if err := os.WriteFile(path, full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		k := 0
		for k+1 < len(ends) && ends[k+1] <= cut {
			k++
		}
		l, got := openAll(t, faultfs.OS(), path)
		if !equalBodies(got, bodies[:k]) {
			t.Fatalf("cut %d: recovered %d bodies %q, want the first %d", cut, len(got), got, k)
		}
		if fi, err := os.Stat(path); err != nil || fi.Size() != int64(ends[k]) {
			t.Fatalf("cut %d: file not truncated to %d bytes: %v %v", cut, ends[k], fi.Size(), err)
		}
		if err := l.Append([]byte("new")); err != nil {
			t.Fatalf("cut %d: append after recovery: %v", cut, err)
		}
		l.Close()
		_, again := openAll(t, faultfs.OS(), path)
		want := append(append([][]byte{}, bodies[:k]...), []byte("new"))
		if !equalBodies(again, want) {
			t.Fatalf("cut %d: reopened %q, want %q", cut, again, want)
		}
	}
}

func TestOpenZeroFilledTail(t *testing.T) {
	// A crash can leave the file grown but zero-filled past the last write:
	// the zeros read as a torn frame and are cut, not as empty bodies.
	path := filepath.Join(t.TempDir(), "zero.log")
	bodies := testBodies()
	mustAppend(t, path, bodies...)
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(make([]byte, 4096)); err != nil {
		t.Fatal(err)
	}
	f.Close()
	_, got := openAll(t, faultfs.OS(), path)
	if !equalBodies(got, bodies) {
		t.Fatalf("recovered %q, want %q", got, bodies)
	}
	if fi, _ := os.Stat(path); fi.Size() != int64(frameEnds(bodies)[len(bodies)]) {
		t.Fatalf("zero tail not cut: file is %d bytes", fi.Size())
	}
}

func TestOpenStopsAtRejectedBody(t *testing.T) {
	path := filepath.Join(t.TempDir(), "reject.log")
	bodies := testBodies()
	mustAppend(t, path, bodies...)
	n := 0
	l, err := Open(faultfs.OS(), path, func(b []byte) bool {
		n++
		return n < 3
	})
	if err != nil {
		t.Fatal(err)
	}
	l.Close()
	if fi, _ := os.Stat(path); fi.Size() != int64(frameEnds(bodies)[2]) {
		t.Fatalf("file is %d bytes, want the two accepted frames (%d)", fi.Size(), frameEnds(bodies)[2])
	}
}

func TestAppendRejectsUnreadableBody(t *testing.T) {
	path := filepath.Join(t.TempDir(), "empty.log")
	l, _ := openAll(t, faultfs.OS(), path)
	defer l.Close()
	if err := l.Append([]byte("ok"), nil); err == nil {
		t.Fatal("Append accepted an empty body")
	}
	if fi, _ := os.Stat(path); fi.Size() != 0 {
		t.Fatalf("rejected Append wrote %d bytes", fi.Size())
	}
}

func TestAppendRepairsFailedAppend(t *testing.T) {
	// A torn write or a failed fsync must not leave bytes that hide later
	// appends: the next Append cuts back to the last durable frame.
	for _, rule := range []faultfs.Rule{
		{Op: faultfs.OpWrite, Nth: 2, Mode: faultfs.ModePartial},
		{Op: faultfs.OpWrite, Nth: 2},
		{Op: faultfs.OpSync, Nth: 2},
	} {
		t.Run(fmt.Sprintf("%s-%s", rule.Op, rule.Mode), func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "torn.log")
			inj := faultfs.NewInjector(faultfs.OS(), 1)
			inj.Add(rule)
			l, _ := openAll(t, inj, path)
			if err := l.Append([]byte("a")); err != nil {
				t.Fatal(err)
			}
			if err := l.Append([]byte("bbbbbbbb")); !errors.Is(err, faultfs.ErrInjected) {
				t.Fatalf("faulted append err = %v", err)
			}
			if err := l.Append([]byte("c")); err != nil {
				t.Fatal(err)
			}
			l.Close()
			_, got := openAll(t, faultfs.OS(), path)
			if want := [][]byte{[]byte("a"), []byte("c")}; !equalBodies(got, want) {
				t.Fatalf("recovered %q, want %q", got, want)
			}
		})
	}
}

func TestCloseCutsFailedAppend(t *testing.T) {
	// A failed Append is not durable, so a clean Close and Open must not
	// read it back — not even when its frame reached the file whole and
	// only the fsync failed — and no Append need come between to repair it.
	for _, rule := range []faultfs.Rule{
		{Op: faultfs.OpWrite, Nth: 2, Mode: faultfs.ModePartial},
		{Op: faultfs.OpSync, Nth: 2},
	} {
		t.Run(fmt.Sprintf("%s-%s", rule.Op, rule.Mode), func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "torn.log")
			inj := faultfs.NewInjector(faultfs.OS(), 1)
			inj.Add(rule)
			l, _ := openAll(t, inj, path)
			if err := l.Append([]byte("a")); err != nil {
				t.Fatal(err)
			}
			if err := l.Append([]byte("bbbbbbbb")); !errors.Is(err, faultfs.ErrInjected) {
				t.Fatalf("faulted append err = %v", err)
			}
			if err := l.Close(); err != nil {
				t.Fatalf("close: %v", err)
			}
			if fi, err := os.Stat(path); err != nil || fi.Size() != int64(frameMeta+1) {
				t.Fatalf("file after close: %v, %v; want %d bytes", fi, err, frameMeta+1)
			}
			_, got := openAll(t, faultfs.OS(), path)
			if want := [][]byte{[]byte("a")}; !equalBodies(got, want) {
				t.Fatalf("recovered %q, want %q", got, want)
			}
		})
	}
	t.Run("truncate-fails", func(t *testing.T) {
		// A Close whose cut fails says so, and the next Append retries it.
		path := filepath.Join(t.TempDir(), "torn.log")
		inj := faultfs.NewInjector(faultfs.OS(), 1)
		inj.Add(faultfs.Rule{Op: faultfs.OpSync, Nth: 2})
		inj.Add(faultfs.Rule{Op: faultfs.OpTruncate, Nth: 1})
		l, _ := openAll(t, inj, path)
		if err := l.Append([]byte("a")); err != nil {
			t.Fatal(err)
		}
		if err := l.Append([]byte("bbbbbbbb")); !errors.Is(err, faultfs.ErrInjected) {
			t.Fatalf("faulted append err = %v", err)
		}
		if err := l.Close(); !errors.Is(err, faultfs.ErrInjected) {
			t.Fatalf("close with a failing cut: err = %v", err)
		}
		if err := l.Append([]byte("c")); err != nil {
			t.Fatal(err)
		}
		l.Close()
		_, got := openAll(t, faultfs.OS(), path)
		if want := [][]byte{[]byte("a"), []byte("c")}; !equalBodies(got, want) {
			t.Fatalf("recovered %q, want %q", got, want)
		}
	})
}

func TestRewriteFaults(t *testing.T) {
	// Fail each step of Rewrite in turn. The file must hold either the old
	// contents or the new, whole, and the log must keep taking appends onto
	// whichever it holds.
	old := [][]byte{[]byte("old-1"), []byte("old-2"), []byte("old-3")}
	fresh := [][]byte{[]byte("new-1")}
	for _, c := range []struct {
		rule    faultfs.Rule
		wantNew bool
	}{
		{faultfs.Rule{Op: faultfs.OpCreate}, false},
		{faultfs.Rule{Op: faultfs.OpWrite, Path: ".tmp"}, false},
		{faultfs.Rule{Op: faultfs.OpWrite, Path: ".tmp", Mode: faultfs.ModePartial}, false},
		{faultfs.Rule{Op: faultfs.OpSync, Path: ".tmp"}, false},
		{faultfs.Rule{Op: faultfs.OpClose, Path: ".tmp"}, false},
		{faultfs.Rule{Op: faultfs.OpRename}, false},
		{faultfs.Rule{Op: faultfs.OpSyncDir}, true},
		{faultfs.Rule{Op: faultfs.OpAppend}, true},
	} {
		t.Run(fmt.Sprintf("%s-%s", c.rule.Op, c.rule.Mode), func(t *testing.T) {
			dir := t.TempDir()
			path := filepath.Join(dir, "rw.log")
			inj := faultfs.NewInjector(faultfs.OS(), 1)
			l, _ := openAll(t, inj, path)
			for _, b := range old {
				if err := l.Append(b); err != nil {
					t.Fatal(err)
				}
			}
			inj.Add(c.rule)
			if err := l.Rewrite(fresh); !errors.Is(err, faultfs.ErrInjected) {
				t.Fatalf("faulted rewrite err = %v", err)
			}
			want := old
			if c.wantNew {
				want = fresh
			}
			_, got := openAll(t, faultfs.OS(), path)
			if !equalBodies(got, want) {
				t.Fatalf("after failed rewrite the log holds %q, want %q", got, want)
			}
			if err := l.Append([]byte("after")); err != nil {
				t.Fatalf("append after failed rewrite: %v", err)
			}
			l.Close()
			_, got = openAll(t, faultfs.OS(), path)
			if want = append(append([][]byte{}, want...), []byte("after")); !equalBodies(got, want) {
				t.Fatalf("append after failed rewrite: log holds %q, want %q", got, want)
			}
			ents, _ := os.ReadDir(dir)
			for _, e := range ents {
				if strings.HasSuffix(e.Name(), ".tmp") {
					t.Fatalf("temp file %s left behind", e.Name())
				}
			}
		})
	}
}

func TestRewriteThenAppend(t *testing.T) {
	path := filepath.Join(t.TempDir(), "rw.log")
	l, _ := openAll(t, faultfs.OS(), path)
	for _, b := range testBodies() {
		if err := l.Append(b); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Rewrite([][]byte{[]byte("kept")}); err != nil {
		t.Fatal(err)
	}
	if err := l.Append([]byte("more")); err != nil {
		t.Fatal(err)
	}
	l.Close()
	_, got := openAll(t, faultfs.OS(), path)
	if want := [][]byte{[]byte("kept"), []byte("more")}; !equalBodies(got, want) {
		t.Fatalf("log holds %q, want %q", got, want)
	}
}

func TestOpenCreateSyncsDir(t *testing.T) {
	// fsync(2): a new file's directory entry is durable only once the
	// directory is fsynced. Creation must sync the directory before the
	// first append is acknowledged; appends and reopening an existing log
	// add no further syncs.
	dir := t.TempDir()
	path := filepath.Join(dir, "new.log")
	inj := faultfs.NewInjector(faultfs.OS(), 1)
	l, _ := openAll(t, inj, path)
	for _, b := range [][]byte{[]byte("a"), []byte("b")} {
		if err := l.Append(b); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()
	l, _ = openAll(t, inj, path)
	l.Close()
	want := []string{
		"readfile " + path,
		"append " + path,
		"syncdir " + dir,
		"write " + path, "sync " + path,
		"write " + path, "sync " + path,
		"close " + path,
		"readfile " + path,
		"append " + path,
		"close " + path,
	}
	if got := inj.Trace(); strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Fatalf("trace:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}

// FuzzJournalOpen throws arbitrary bytes at Open: it must never panic, the
// recovered bodies must re-encode to exactly the bytes it kept, and an
// Append after Open must round-trip.
func FuzzJournalOpen(f *testing.F) {
	seed, err := appendFrames(nil, testBodies())
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	f.Add(seed[:len(seed)/2])
	f.Add(append(append([]byte(nil), seed...), make([]byte, 16)...))
	flipped := append([]byte(nil), seed...)
	flipped[len(flipped)/3] ^= 0x40
	f.Add(flipped)
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "fuzz.log")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		l, got := openAll(t, faultfs.OS(), path)
		kept, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		enc, err := appendFrames(nil, got)
		if err != nil {
			t.Fatalf("recovered an unencodable body: %v", err)
		}
		if !bytes.Equal(enc, kept) || !bytes.Equal(kept, data[:len(kept)]) {
			t.Fatalf("recovered bodies re-encode to %d bytes, kept %d of %d", len(enc), len(kept), len(data))
		}
		if Scan(data, nil) != int64(len(kept)) {
			t.Fatalf("Scan = %d, Open kept %d", Scan(data, nil), len(kept))
		}
		if err := l.Append([]byte("post")); err != nil {
			t.Fatalf("append after open: %v", err)
		}
		l.Close()
		_, again := openAll(t, faultfs.OS(), path)
		if want := append(got, []byte("post")); !equalBodies(again, want) {
			t.Fatalf("append after open: reopened %d bodies, want %d", len(again), len(want))
		}
	})
}
