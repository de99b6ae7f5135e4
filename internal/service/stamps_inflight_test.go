package service

import (
	"errors"
	"net/http/httptest"
	"testing"

	"epfis/internal/catalog"
	"epfis/internal/cluster"
)

// TestStampSkipCoversInFlightMutation runs an anti-entropy merge's prepare
// while a mutation sits between its store commit and its stamp — on the
// local-origination path and on the replicated-arrival path. The merge must
// skip the key (the node reports it stamp-tracked while in flight) rather
// than overwrite the fresh value with a peer's stale copy; a failed apply
// must leave the key untracked.
func TestStampSkipCoversInFlightMutation(t *testing.T) {
	store := catalog.NewStore()
	node, err := cluster.NewNode(cluster.Config{
		SelfID:  "solo",
		SelfURL: "http://127.0.0.1:1",
		Store:   store,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(Config{Store: store, Cluster: node})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	// putThenMerge installs the seed-th statistics for key, then — before
	// the caller records the stamp — merges a peer snapshot holding the
	// seed-1 statistics, as a concurrent anti-entropy pull would.
	peer := catalog.NewStore()
	putThenMerge := func(table, column string, seed int64) func() (uint64, error) {
		if _, err := peer.Put(fitStats(t, table, column, 1)); err != nil {
			t.Fatal(err)
		}
		stale, _, err := peer.ExportSnapshot()
		if err != nil {
			t.Fatal(err)
		}
		return func() (uint64, error) {
			gen, err := store.Put(fitStats(t, table, column, seed))
			if err != nil {
				return 0, err
			}
			if _, err := store.MergeSnapshot(stale, node.HasKeyStamp); err != nil {
				return 0, err
			}
			return gen, nil
		}
	}
	check := func(table, column string, seed int64, path string) {
		t.Helper()
		e, err := store.Get(table, column)
		if err != nil {
			t.Fatal(err)
		}
		if want := fitStats(t, table, column, seed).FMin; e.FMin != want {
			t.Fatalf("%s mutation overwritten by a merge before its stamp: FMin = %d, want %d", path, e.FMin, want)
		}
	}
	if fitStats(t, "orders", "key", 1).FMin == fitStats(t, "orders", "key", 2).FMin {
		t.Fatal("test statistics do not differ; pick other seeds")
	}

	if _, _, _, err := srv.applyLocal("orders.key", putThenMerge("orders", "key", 2)); err != nil {
		t.Fatal(err)
	}
	check("orders", "key", 2, "local")

	// The replicated path, on a key the node has never stamped.
	rec := httptest.NewRecorder()
	srv.applyReplicated(rec, "lineitem.partkey", cluster.Stamp{Epoch: 9, Origin: "peer"},
		putThenMerge("lineitem", "partkey", 2))
	if rec.Code != 200 {
		t.Fatalf("replicated apply status %d: %s", rec.Code, rec.Body)
	}
	check("lineitem", "partkey", 2, "replicated")

	// A failed apply records no stamp and clears the in-flight mark.
	if _, _, _, err := srv.applyLocal("t.failed", func() (uint64, error) {
		if !node.HasKeyStamp("t.failed") {
			t.Error("key not tracked while its mutation is in flight")
		}
		return 0, errors.New("injected")
	}); err == nil {
		t.Fatal("applyLocal swallowed the apply error")
	}
	if node.HasKeyStamp("t.failed") {
		t.Fatal("failed mutation left its key tracked")
	}
}
