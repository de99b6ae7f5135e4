package main

import (
	"bytes"
	"encoding/json"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"epfis/internal/catalog"
	"epfis/internal/curvefit"
	"epfis/internal/stats"
)

func TestRunRejectsCorruptCatalog(t *testing.T) {
	path := filepath.Join(t.TempDir(), "catalog.json")
	if err := os.WriteFile(path, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	err := run([]string{"-catalog", path, "-quiet"})
	if err == nil {
		t.Fatal("run accepted a corrupt catalog file")
	}
	if !strings.Contains(err.Error(), "catalog") {
		t.Fatalf("err = %v", err)
	}
}

func TestRunRejectsBadAddress(t *testing.T) {
	err := run([]string{"-in-memory", "-quiet", "-addr", "256.256.256.256:99999"})
	if err == nil {
		t.Fatal("run accepted an unusable listen address")
	}
}

func TestRunRejectsBadFaultSpec(t *testing.T) {
	t.Setenv("EPFIS_FAULTS", "write:catalog:not-a-number:error")
	err := run([]string{"-in-memory", "-quiet"})
	if err == nil || !strings.Contains(err.Error(), "EPFIS_FAULTS") {
		t.Fatalf("err = %v, want EPFIS_FAULTS parse failure", err)
	}
}

func TestRunRejectsBadFaultSeed(t *testing.T) {
	t.Setenv("EPFIS_FAULTS", "write:catalog:1:error")
	t.Setenv("EPFIS_FAULT_SEED", "not-a-number")
	err := run([]string{"-in-memory", "-quiet"})
	if err == nil || !strings.Contains(err.Error(), "EPFIS_FAULT_SEED") {
		t.Fatalf("err = %v, want EPFIS_FAULT_SEED parse failure", err)
	}
}

func TestRunRejectsBadLogLevel(t *testing.T) {
	err := run([]string{"-in-memory", "-log-level", "chatty"})
	if err == nil || !strings.Contains(err.Error(), "-log-level") {
		t.Fatalf("err = %v, want -log-level parse failure", err)
	}
}

func TestRunRejectsBadLogFormat(t *testing.T) {
	err := run([]string{"-in-memory", "-log-format", "logfmt2"})
	if err == nil || !strings.Contains(err.Error(), "-log-format") {
		t.Fatalf("err = %v, want -log-format rejection", err)
	}
}

func TestBuildLogger(t *testing.T) {
	if l, err := buildLogger(true, "info", "text"); err != nil || l != nil {
		t.Fatalf("quiet: logger = %v, err = %v, want nil/nil", l, err)
	}
	for _, format := range []string{"text", "json"} {
		for _, level := range []string{"debug", "info", "warn", "ERROR"} {
			if l, err := buildLogger(false, level, format); err != nil || l == nil {
				t.Fatalf("level %q format %q: logger = %v, err = %v", level, format, l, err)
			}
		}
	}
}

func TestFaultFSBuildsInjector(t *testing.T) {
	t.Setenv("EPFIS_FAULTS", "sync:catalog:2:error,write:*:1:slow=5ms")
	t.Setenv("EPFIS_FAULT_SEED", "7")
	fsys, err := faultFS(nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := fsys.(interface{ Injected() int }); !ok {
		t.Fatalf("faultFS returned %T, want an injector", fsys)
	}
}

// TestRunPersistsThroughWALBesideCatalog boots on a catalog path with no
// -wal-dir: the write-ahead log goes beside the catalog file, an installed
// index survives shutdown, and the store reopens with it.
func TestRunPersistsThroughWALBesideCatalog(t *testing.T) {
	path := filepath.Join(t.TempDir(), "catalog.json")
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()

	done := make(chan error, 1)
	go func() { done <- run([]string{"-catalog", path, "-addr", addr, "-quiet"}) }()
	base := "http://" + addr
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := http.Get(base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				break
			}
		}
		select {
		case err := <-done:
			t.Fatalf("run exited before serving: %v", err)
		default:
		}
		if time.Now().After(deadline) {
			t.Fatal("service never became healthy")
		}
		time.Sleep(20 * time.Millisecond)
	}

	body, err := json.Marshal(&stats.IndexStats{
		Table: "orders", Column: "key", T: 100, N: 1000, I: 100,
		BMin: 12, BMax: 100, FMin: 500, C: 0.5,
		Curve: curvefit.PolyLine{Knots: []curvefit.Point{
			{X: 12, Y: 500}, {X: 100, Y: 100}}},
		GridPoints: 2, CollectedAt: time.Unix(0, 0).UTC(),
	})
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPut, base+"/v1/indexes/orders/key", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("PUT status %d", resp.StatusCode)
	}

	// run drains on SIGTERM; it has been listening for it since it began
	// serving.
	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("run did not stop on SIGTERM")
	}

	if _, err := os.Stat(path + ".wal"); err != nil {
		t.Fatalf("no write-ahead log beside the catalog: %v", err)
	}
	st, err := catalog.OpenWAL(path, catalog.WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if e, err := st.Get("orders", "key"); err != nil || e.FMin != 500 {
		t.Fatalf("installed index after restart = %v, %v", e, err)
	}
}
