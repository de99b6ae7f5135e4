package catalog

// Crash-safe persistence for the catalog file.
//
// On disk a catalog is the stats-package JSON document followed by one
// checksum trailer line:
//
//	{ "version": 1, "entries": [ ... ] }
//	#epfis-catalog v1 crc32c=xxxxxxxx bytes=NNN
//
// The trailer pins the payload length and its CRC32-C, so truncation and
// bit rot are detected even when the damaged bytes still parse as JSON.
// Files without a trailer (hand-edited, or written by `epfis gen` /
// stats.SaveFile) load as legacy files on the JSON parser's own validation;
// json.Decoder reads exactly one value, so trailered files remain loadable
// by plain stats.LoadFile too — the formats are mutually compatible.
//
// The file is the WAL store's checkpoint (wal.go), so its trailer also
// carries the log position it covers ("lsn=N"). Checkpoints follow the full
// crash-safety sequence: serialize to a temp file in the target directory,
// fsync it, retain the previous generation as <path>.prev, rename the temp
// file into place, and fsync the directory. Recovery (OpenWAL) falls back to
// the .prev generation when the main file is corrupt, truncated, or lost
// mid-rename.

import (
	"bytes"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"epfis/internal/faultfs"
	"epfis/internal/stats"
)

// ErrCorrupt is wrapped by load failures caused by a checksum mismatch, a
// truncated payload, or a malformed trailer.
var ErrCorrupt = errors.New("catalog: corrupt catalog file")

// trailerPrefix starts the checksum line; the v1 suffix versions the
// trailer format itself (the payload format is versioned inside the JSON).
const trailerPrefix = "#epfis-catalog v1 "

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// PrevPath is the retained previous-generation backup for a catalog path.
func PrevPath(path string) string { return path + ".prev" }

// catalogJSON renders an entry set as the canonical catalog JSON document
// (stats.Catalog.Save sorts keys and indents identically everywhere, so equal
// entry sets render byte-identically on every node).
func catalogJSON(entries map[string]*stats.IndexStats) ([]byte, error) {
	c := stats.NewCatalog()
	for _, e := range entries {
		if err := c.Put(e); err != nil {
			return nil, err
		}
	}
	var buf bytes.Buffer
	if err := c.Save(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// withTrailer appends the checksum trailer to a catalog JSON payload. extra
// carries optional trailer fields: a checkpoint adds " lsn=N", pinning the
// log position it covers so recovery replays only the frames past it.
func withTrailer(payload []byte, extra string) []byte {
	crc := crc32.Checksum(payload, crcTable)
	return fmt.Appendf(payload, "%scrc32c=%08x bytes=%d%s\n", trailerPrefix, crc, len(payload), extra)
}

// verifyPayload validates the trailer (when present) and returns the JSON
// payload bytes plus the trailer's WAL position (0 when absent — pre-WAL
// files cover no log). Legacy files without a trailer pass through whole.
func verifyPayload(data []byte) ([]byte, uint64, error) {
	idx := bytes.LastIndex(data, []byte(trailerPrefix))
	if idx < 0 {
		return data, 0, nil // legacy file: JSON validation is the only guard
	}
	line := strings.TrimSuffix(string(data[idx+len(trailerPrefix):]), "\n")
	if strings.ContainsAny(line, "\n\r") {
		return nil, 0, fmt.Errorf("%w: data after checksum trailer", ErrCorrupt)
	}
	fields := strings.Split(line, " ")
	ok := len(fields) == 2 || len(fields) == 3
	var crc uint64
	var n int
	var lsn uint64
	if ok {
		cv, errC := strconv.ParseUint(strings.TrimPrefix(fields[0], "crc32c="), 16, 32)
		bv, errB := strconv.Atoi(strings.TrimPrefix(fields[1], "bytes="))
		ok = errC == nil && errB == nil &&
			strings.HasPrefix(fields[0], "crc32c=") && strings.HasPrefix(fields[1], "bytes=")
		crc, n = cv, bv
		if ok && len(fields) == 3 {
			lv, errL := strconv.ParseUint(strings.TrimPrefix(fields[2], "lsn="), 10, 64)
			ok = errL == nil && strings.HasPrefix(fields[2], "lsn=")
			lsn = lv
		}
	}
	if !ok {
		return nil, 0, fmt.Errorf("%w: malformed checksum trailer %q", ErrCorrupt, line)
	}
	if n != idx {
		return nil, 0, fmt.Errorf("%w: payload is %d bytes, trailer pins %d (truncated or spliced)", ErrCorrupt, idx, n)
	}
	payload := data[:idx]
	if got := crc32.Checksum(payload, crcTable); uint64(got) != crc {
		return nil, 0, fmt.Errorf("%w: crc32c %08x, trailer pins %08x", ErrCorrupt, got, crc)
	}
	return payload, lsn, nil
}

// checkpoint is a verified catalog file: its statistics, the WAL position
// its trailer pins (0 for files without one), and the CRC32-C of its bytes,
// which Reload compares to tell an out-of-process refresh from the store's
// own checkpoint.
type checkpoint struct {
	cat *stats.Catalog // nil when no catalog file exists
	lsn uint64
	sum uint32
}

// loadVerified reads path through fsys, checks the trailer, and parses the
// payload as a stats catalog.
func loadVerified(fsys faultfs.FS, path string) (checkpoint, error) {
	data, err := fsys.ReadFile(path)
	if err != nil {
		return checkpoint{}, err
	}
	payload, lsn, err := verifyPayload(data)
	if err != nil {
		return checkpoint{}, fmt.Errorf("%s: %w", path, err)
	}
	c, err := stats.Load(bytes.NewReader(payload))
	if err != nil {
		return checkpoint{}, fmt.Errorf("%s: %w", path, err)
	}
	return checkpoint{cat: c, lsn: lsn, sum: crc32.Checksum(data, crcTable)}, nil
}

// loadWithRecovery loads the catalog at path, falling back to the retained
// previous generation when the main file is corrupt, truncated, or missing
// after a crashed write. It returns a zero checkpoint when neither file
// exists (a fresh store), and the main file's error when no fallback can
// serve.
func loadWithRecovery(fsys faultfs.FS, path string) (ck checkpoint, recovered bool, err error) {
	ck, mainErr := loadVerified(fsys, path)
	if mainErr == nil {
		return ck, false, nil
	}
	// Corrupt, truncated, or missing after a crashed write: adopt the
	// retained previous generation when it verifies.
	prev, prevErr := loadVerified(fsys, PrevPath(path))
	if prevErr == nil {
		return prev, true, nil
	}
	if errors.Is(mainErr, os.ErrNotExist) && errors.Is(prevErr, os.ErrNotExist) {
		return checkpoint{}, false, nil
	}
	return checkpoint{}, false, mainErr
}

// encodeCheckpoint renders snap as a checkpoint file covering the log up to
// lsn.
func encodeCheckpoint(snap *Snapshot, lsn uint64) ([]byte, error) {
	payload, err := catalogJSON(snap.entries)
	if err != nil {
		return nil, err
	}
	return withTrailer(payload, fmt.Sprintf(" lsn=%d", lsn)), nil
}

// writeAtomicLSN persists a checkpoint's bytes crash-safely: temp file +
// fsync, retain the previous generation as .prev, rename into place, fsync
// the directory. Any failure leaves the previous on-disk generation loadable
// (directly or via .prev recovery). placed reports whether data is now the
// file at path, which stays true when only the directory fsync failed.
func writeAtomicLSN(fsys faultfs.FS, path string, data []byte) (placed bool, err error) {
	dir := filepath.Dir(path)
	tmp, err := fsys.CreateTemp(dir, ".catalog-*.tmp")
	if err != nil {
		return false, fmt.Errorf("catalog: %w", err)
	}
	tmpName := tmp.Name()
	defer fsys.Remove(tmpName) // no-op after a successful rename
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return false, fmt.Errorf("catalog: %w", err)
	}
	// fsync before rename: the rename must never publish bytes that are
	// still only in the page cache.
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return false, fmt.Errorf("catalog: fsync: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return false, fmt.Errorf("catalog: %w", err)
	}
	// Retain the current generation before replacing it. A crash between
	// the two renames leaves no main file, which recovery serves from
	// .prev.
	if err := fsys.Rename(path, PrevPath(path)); err != nil && !errors.Is(err, os.ErrNotExist) {
		return false, fmt.Errorf("catalog: retain previous generation: %w", err)
	}
	if err := fsys.Rename(tmpName, path); err != nil {
		return false, fmt.Errorf("catalog: %w", err)
	}
	if err := fsys.SyncDir(dir); err != nil {
		return true, fmt.Errorf("catalog: sync dir: %w", err)
	}
	return true, nil
}
