package service

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"epfis/internal/catalog"
	"epfis/internal/cluster"
	"epfis/internal/faultfs"
)

// journalServer starts a single-node cluster-mode server whose hint and
// stamp journals live in dir. Hints queue for "ghost", a peer that never
// joins, and are kept forever, so nothing drains them behind the test.
func journalServer(t *testing.T, dir string) (*Server, *cluster.Node) {
	t.Helper()
	store := catalog.NewStore()
	node, err := cluster.NewNode(cluster.Config{
		SelfID:  "solo",
		SelfURL: "http://127.0.0.1:1",
		Store:   store,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(Config{
		Store:               store,
		Cluster:             node,
		HandoffDir:          dir,
		HandoffAbandonAfter: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	return srv, node
}

func ghostHint(i int) hintRecord {
	return hintRecord{
		Peer: "ghost", Method: http.MethodPut,
		Path:  fmt.Sprintf("/v1/indexes/t/c%d", i),
		Body:  []byte(fmt.Sprintf(`{"table":"t","column":"c%d"}`, i)),
		Epoch: uint64(i), Key: fmt.Sprintf("t.c%d", i),
	}
}

// ghostQueue is the server's queued hints for "ghost".
func ghostQueue(srv *Server) []hintRecord {
	srv.handoff.mu.Lock()
	defer srv.handoff.mu.Unlock()
	return append([]hintRecord{}, srv.handoff.queues["ghost"]...)
}

// hasSuffix reports whether got ends with want.
func hasSuffix(got, want []hintRecord) bool {
	return len(got) >= len(want) && reflect.DeepEqual(got[len(got)-len(want):], want)
}

func TestHandoffJournalRepairsTornAppend(t *testing.T) {
	// Hint b's append tears; hint c is then written and fsynced. A restart
	// must recover a and c: the torn bytes must not hide the acknowledged c.
	dir := t.TempDir()
	srv, _ := journalServer(t, dir)
	inj := faultfs.NewInjector(faultfs.OS(), 1)
	inj.Add(faultfs.Rule{Op: faultfs.OpWrite, Path: ".hints", Nth: 2, Mode: faultfs.ModePartial})
	srv.handoff.fs = inj
	a, b, c := ghostHint(1), ghostHint(2), ghostHint(3)
	for _, rec := range []hintRecord{a, b, c} {
		srv.handoff.enqueue(rec)
	}
	if inj.Injected() != 1 {
		t.Fatalf("injected %d faults, want 1", inj.Injected())
	}
	srv.Close()

	reborn, _ := journalServer(t, dir)
	if got, want := ghostQueue(reborn), []hintRecord{a, c}; !reflect.DeepEqual(got, want) {
		t.Fatalf("restart recovered %+v, want %+v", got, want)
	}
}

func TestHandoffJournalCompactionFailureKeepsHints(t *testing.T) {
	// A compaction that fails part way must leave every undelivered hint on
	// disk: a crash right after it must not lose them.
	for _, rule := range []faultfs.Rule{
		{Op: faultfs.OpWrite, Path: ".hints"},
		{Op: faultfs.OpSync, Path: ".hints"},
		{Op: faultfs.OpRename, Path: ".hints"},
	} {
		t.Run(string(rule.Op), func(t *testing.T) {
			dir := t.TempDir()
			srv, _ := journalServer(t, dir)
			inj := faultfs.NewInjector(faultfs.OS(), 1)
			srv.handoff.fs = inj
			for i := 0; i < 3; i++ {
				srv.handoff.enqueue(ghostHint(i))
			}
			inj.Add(rule)
			h := srv.handoff
			h.mu.Lock()
			h.queues["ghost"] = h.queues["ghost"][1:] // hint 0 delivered
			h.delivered["ghost"]++
			h.compactLocked("ghost")
			h.mu.Unlock()
			// The journal must keep taking hints after the failure.
			srv.handoff.enqueue(ghostHint(3))
			srv.Close()

			reborn, _ := journalServer(t, dir)
			want := []hintRecord{ghostHint(1), ghostHint(2), ghostHint(3)}
			if got := ghostQueue(reborn); !hasSuffix(got, want) {
				t.Fatalf("after a failed compaction the journal holds %+v, want it to end with %+v", got, want)
			}
		})
	}
}

func TestStampJournalRepairsTornAppend(t *testing.T) {
	dir := t.TempDir()
	srv, _ := journalServer(t, dir)
	srv.stamps.close()
	inj := faultfs.NewInjector(faultfs.OS(), 1)
	inj.Add(faultfs.Rule{Op: faultfs.OpWrite, Path: "keystamps", Nth: 2, Mode: faultfs.ModePartial})
	srv.stamps.fs = inj
	a, c := cluster.Stamp{Epoch: 1, Origin: "solo"}, cluster.Stamp{Epoch: 3, Origin: "solo"}
	srv.recordStamp("t.a", a)
	srv.recordStamp("t.b", cluster.Stamp{Epoch: 2, Origin: "solo"})
	srv.recordStamp("t.c", c)
	if inj.Injected() != 1 {
		t.Fatalf("injected %d faults, want 1", inj.Injected())
	}
	srv.Close()

	_, node := journalServer(t, dir)
	if got := node.KeyStamps(); got["t.a"] != a || got["t.c"] != c {
		t.Fatalf("restart recovered stamps %+v, want t.a=%+v and t.c=%+v", got, a, c)
	}
}

func TestStampJournalCompactionFailureKeepsStamps(t *testing.T) {
	// The compaction rewrites the journal from the live table. If it fails
	// part way, the journal on disk must still fold to every live stamp —
	// otherwise a crash there reopens the tombstone-resurrection window.
	for _, rule := range []faultfs.Rule{
		{Op: faultfs.OpWrite, Path: "journal", Nth: 2}, // 1st: the append that triggers it
		{Op: faultfs.OpSync, Path: "journal", Nth: 2},
		{Op: faultfs.OpRename, Path: "journal"},
	} {
		t.Run(string(rule.Op), func(t *testing.T) {
			dir := t.TempDir()
			srv, node := journalServer(t, dir)
			srv.stamps.close()
			inj := faultfs.NewInjector(faultfs.OS(), 1)
			srv.stamps.fs = inj
			for i := 1; i < stampCompactMin; i++ {
				srv.recordStamp(fmt.Sprintf("t.k%d", i%2), cluster.Stamp{Epoch: uint64(i), Origin: "solo"})
			}
			inj.Add(rule)
			// The 256th append outgrows the two live keys: compaction runs.
			srv.recordStamp("t.k0", cluster.Stamp{Epoch: stampCompactMin, Origin: "solo"})
			srv.recordStamp("t.k2", cluster.Stamp{Epoch: stampCompactMin + 1, Origin: "solo"})
			want := node.KeyStamps()
			srv.Close()

			_, renode := journalServer(t, dir)
			if got := renode.KeyStamps(); !reflect.DeepEqual(got, want) {
				t.Fatalf("after a failed compaction the journal folds to %+v, want %+v", got, want)
			}
		})
	}
}

func TestHandoffJournalEveryByteCut(t *testing.T) {
	// Cut a hint journal at every byte: each restart must recover a FIFO
	// prefix of the hints, never a torn or reordered one, and the whole
	// file must recover all of them.
	dir := t.TempDir()
	srv, _ := journalServer(t, dir)
	var hints []hintRecord
	for i := 0; i < 4; i++ {
		hints = append(hints, ghostHint(i))
		srv.handoff.enqueue(hints[i])
	}
	srv.Close()
	path := srv.handoff.hintPath("ghost")
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	last := 0
	for cut := 0; cut <= len(full); cut++ {
		if err := os.WriteFile(path, full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		re, _ := journalServer(t, dir)
		got := ghostQueue(re)
		re.Close()
		if len(got) < last || len(got) > len(hints) || !reflect.DeepEqual(got, hints[:len(got)]) {
			t.Fatalf("cut %d: recovered %d hints, not a FIFO prefix at least %d long", cut, len(got), last)
		}
		last = len(got)
	}
	if last != len(hints) {
		t.Fatalf("whole journal recovered %d hints, want %d", last, len(hints))
	}
}

func TestStampJournalEveryByteCut(t *testing.T) {
	// Cut a stamp journal at every byte: each restart must recover the fold
	// of a prefix of the appended stamps, and the whole file all of them.
	type rec struct {
		key string
		st  cluster.Stamp
	}
	recs := []rec{
		{"t.a", cluster.Stamp{Epoch: 1, Origin: "solo"}},
		{"t.b", cluster.Stamp{Epoch: 2, Origin: "solo"}},
		{"t.a", cluster.Stamp{Epoch: 3, Origin: "peer"}},
		{"t.c", cluster.Stamp{Epoch: 4, Origin: "solo"}},
		{"t.b", cluster.Stamp{Epoch: 5, Origin: "solo"}},
	}
	folds := []map[string]cluster.Stamp{{}}
	for _, r := range recs {
		next := map[string]cluster.Stamp{}
		for k, v := range folds[len(folds)-1] {
			next[k] = v
		}
		next[r.key] = r.st
		folds = append(folds, next)
	}
	dir := t.TempDir()
	srv, _ := journalServer(t, dir)
	for _, r := range recs {
		srv.recordStamp(r.key, r.st)
	}
	srv.Close()
	path := filepath.Join(dir, stampJournalFile)
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	last := 0
	for cut := 0; cut <= len(full); cut++ {
		if err := os.WriteFile(path, full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		re, node := journalServer(t, dir)
		got := node.KeyStamps()
		re.Close()
		k := last
		for k < len(folds) && !reflect.DeepEqual(got, folds[k]) {
			k++
		}
		if k == len(folds) {
			t.Fatalf("cut %d: recovered %+v, the fold of no prefix from %d on", cut, got, last)
		}
		last = k
	}
	if last != len(recs) {
		t.Fatalf("whole journal recovered the fold of %d stamps, want %d", last, len(recs))
	}
}

// legacyFrames hand-encodes records the way the journals have always been
// written: [len u32 LE][crc32c u32 LE][json].
func legacyFrames(t *testing.T, recs ...any) []byte {
	t.Helper()
	var out []byte
	for _, r := range recs {
		body, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		out = binary.LittleEndian.AppendUint32(out, uint32(len(body)))
		out = binary.LittleEndian.AppendUint32(out, crc32.Checksum(body, crc32.MakeTable(crc32.Castagnoli)))
		out = append(out, body...)
	}
	return out
}

func TestHandoffJournalOpensLegacyFiles(t *testing.T) {
	// Hint and stamp journals written before the shared journal package
	// open unchanged: no migration.
	dir := t.TempDir()
	hints := []hintRecord{ghostHint(1), ghostHint(2)}
	if err := os.WriteFile(filepath.Join(dir, "ghost.hints"), legacyFrames(t, hints[0], hints[1]), 0o644); err != nil {
		t.Fatal(err)
	}
	stamps := legacyFrames(t,
		stampRecord{Key: "t.a", Epoch: 4, Origin: "solo"},
		stampRecord{Key: "t.a", Epoch: 2, Origin: "solo"},
		stampRecord{Key: "t.b", Epoch: 9, Origin: "peer"})
	if err := os.WriteFile(filepath.Join(dir, stampJournalFile), stamps, 0o644); err != nil {
		t.Fatal(err)
	}
	srv, node := journalServer(t, dir)
	if got := ghostQueue(srv); !reflect.DeepEqual(got, hints) {
		t.Fatalf("legacy hint journal loaded %+v, want %+v", got, hints)
	}
	want := map[string]cluster.Stamp{"t.a": {Epoch: 4, Origin: "solo"}, "t.b": {Epoch: 9, Origin: "peer"}}
	if got := node.KeyStamps(); !reflect.DeepEqual(got, want) {
		t.Fatalf("legacy stamp journal loaded %+v, want %+v", got, want)
	}
	if node.Epoch() < 9 {
		t.Fatalf("epoch %d not folded up to the journaled 9", node.Epoch())
	}
}

func TestHandoffJournalCreationSyncsDir(t *testing.T) {
	// A new journal's directory entry is durable only once the directory is
	// fsynced: creating a peer's hint journal or the stamp journal must
	// sync the directory before the first append is acknowledged, and the
	// append path adds nothing beyond one write and one fsync.
	dir := t.TempDir()
	srv, _ := journalServer(t, dir)
	inj := faultfs.NewInjector(faultfs.OS(), 1)
	srv.handoff.fs = inj
	srv.handoff.enqueue(ghostHint(1))
	srv.handoff.enqueue(ghostHint(2))

	srv.stamps.close()
	stampPath := filepath.Join(dir, stampJournalFile)
	if err := os.Remove(stampPath); err != nil {
		t.Fatal(err)
	}
	srv.stamps.fs = inj
	srv.recordStamp("t.a", cluster.Stamp{Epoch: 1, Origin: "solo"})
	srv.recordStamp("t.b", cluster.Stamp{Epoch: 2, Origin: "solo"})

	var want []string
	for _, p := range []string{srv.handoff.hintPath("ghost"), stampPath} {
		want = append(want, "readfile "+p, "append "+p, "syncdir "+dir,
			"write "+p, "sync "+p, "write "+p, "sync "+p)
	}
	if got := inj.Trace(); strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Fatalf("trace:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}
