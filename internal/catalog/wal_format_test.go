package catalog

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"hash/crc32"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"epfis/internal/faultfs"
)

func TestWALFileFormat(t *testing.T) {
	// Pin the on-disk bytes with an independent encoder, so logs written by
	// any earlier build keep opening unchanged:
	// [len u32][crc32c u32][type u8][lsn u64][payload], integers LE.
	dir := t.TempDir()
	path := filepath.Join(dir, "catalog.json")
	inj := faultfs.NewInjector(faultfs.OS(), 1)
	st, err := OpenWALFS(path, WALOptions{CheckpointEvery: -1}, inj)
	if err != nil {
		t.Fatal(err)
	}
	e := entry("t", "c", 120)
	ingest := []byte(`{"id":"b1"}`)
	if _, err := st.Put(e); err != nil {
		t.Fatal(err)
	}
	if _, _, err := st.Delete("t", "c"); err != nil {
		t.Fatal(err)
	}
	if err := st.AppendIngest(ingest); err != nil {
		t.Fatal(err)
	}
	st.Close()

	frame := func(ftype byte, lsn uint64, payload []byte) []byte {
		body := append([]byte{ftype}, binary.LittleEndian.AppendUint64(nil, lsn)...)
		body = append(body, payload...)
		out := binary.LittleEndian.AppendUint32(nil, uint32(len(body)))
		out = binary.LittleEndian.AppendUint32(out, crc32.Checksum(body, crc32.MakeTable(crc32.Castagnoli)))
		return append(out, body...)
	}
	put, err := json.Marshal(e)
	if err != nil {
		t.Fatal(err)
	}
	want := slices.Concat(
		frame(walFrameHeader, 0, []byte(walHeaderMagic)),
		frame(walFramePut, 1, put),
		frame(walFrameDelete, 2, []byte("t.c")),
		frame(walFrameIngest, 3, ingest))
	got, err := os.ReadFile(st.WALPath())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("wal bytes:\n%q\nwant:\n%q", got, want)
	}

	// Creating the log syncs its directory before the header is written.
	trace := inj.Trace()
	created := slices.Index(trace, "append "+st.WALPath())
	if created < 0 || !slices.Equal(trace[created+1:created+4],
		[]string{"syncdir " + dir, "write " + st.WALPath(), "sync " + st.WALPath()}) {
		t.Fatalf("wal creation not followed by a directory sync, then the header:\n%q", trace)
	}
}
