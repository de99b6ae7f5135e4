// Package journal is the durable append-only log every on-disk log in EPFIS
// is built on: the catalog WAL, the per-peer hint journals and the key-stamp
// journal.
//
// A log file is a sequence of frames, integers little-endian:
//
//	[len u32][crc u32][body]
//
// len is the body length, 1 to maxBody bytes; crc is CRC32-C (Castagnoli)
// over the body. What a body holds is the caller's business. A frame that is
// cut short, declares a zero or oversized length, or fails its checksum is
// torn, and so is everything after it: Open cuts the file back to the last
// whole frame. An empty body is never written, so a zero-filled tail — what
// a crash can leave after a file grows — always reads as torn.
//
// Durability: Append writes its frames with one write and makes them
// durable with one fsync. When either fails, the bytes past the last
// durable offset may be torn; the next Append or Close truncates them away.
// Rewrite replaces the whole log atomically (temp file, fsync, rename,
// directory fsync), so a crash or a failed step leaves either the old log
// or the new one, whole. Open fsyncs the directory when it creates
// the file, so a new log's directory entry is as durable as its first
// Append.
package journal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io/fs"
	"path/filepath"

	"epfis/internal/faultfs"
)

// maxBody bounds a frame's declared length, so a corrupt length field
// cannot drive a giant allocation or read.
const maxBody = 64 << 20

// frameMeta is the framed byte count before the body: len + crc.
const frameMeta = 8

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Log is one open log file. It is not safe for concurrent use: its owner
// serializes every call.
type Log struct {
	fs      faultfs.FS
	path    string
	f       faultfs.File // nil until the next Append reopens the file
	durable int64        // fsynced byte length of the file
	torn    bool         // bytes past durable may be a failed append's
	buf     []byte       // reused frame buffer
}

// Scan walks the frames of data in order, handing each body to accept, and
// returns the byte length of the prefix accept took. It stops at the first
// torn frame or at the first body accept rejects. A nil accept takes every
// whole frame. Bodies alias data.
func Scan(data []byte, accept func(body []byte) bool) int64 {
	off := 0
	for len(data)-off >= frameMeta {
		n := int64(binary.LittleEndian.Uint32(data[off:]))
		if n == 0 || n > maxBody || n > int64(len(data)-off-frameMeta) {
			break
		}
		body := data[off+frameMeta : off+frameMeta+int(n)]
		if crc32.Checksum(body, castagnoli) != binary.LittleEndian.Uint32(data[off+4:]) {
			break
		}
		if accept != nil && !accept(body) {
			break
		}
		off += frameMeta + int(n)
	}
	return int64(off)
}

// Open reads the log at path through Scan, truncates the file after the
// accepted prefix, and opens it for append. A missing file is created, and
// its directory fsynced.
func Open(fsys faultfs.FS, path string, accept func(body []byte) bool) (*Log, error) {
	data, err := fsys.ReadFile(path)
	created := errors.Is(err, fs.ErrNotExist)
	if err != nil && !created {
		return nil, fmt.Errorf("journal: read %s: %w", path, err)
	}
	good := Scan(data, accept)
	if good < int64(len(data)) {
		if err := fsys.Truncate(path, good); err != nil {
			return nil, fmt.Errorf("journal: cut torn tail of %s: %w", path, err)
		}
	}
	f, err := fsys.OpenAppend(path)
	if err != nil {
		return nil, fmt.Errorf("journal: open %s: %w", path, err)
	}
	if created {
		if err := fsys.SyncDir(filepath.Dir(path)); err != nil {
			f.Close()
			return nil, fmt.Errorf("journal: sync dir of %s: %w", path, err)
		}
	}
	return &Log{fs: fsys, path: path, f: f, durable: good}, nil
}

// appendFrames frames each body onto dst, rejecting a body a reader would
// take for a torn frame.
func appendFrames(dst []byte, bodies [][]byte) ([]byte, error) {
	for _, b := range bodies {
		if len(b) == 0 || len(b) > maxBody {
			return dst, fmt.Errorf("journal: body of %d bytes outside [1, %d]", len(b), maxBody)
		}
		dst = binary.LittleEndian.AppendUint32(dst, uint32(len(b)))
		dst = binary.LittleEndian.AppendUint32(dst, crc32.Checksum(b, castagnoli))
		dst = append(dst, b...)
	}
	return dst, nil
}

// Append makes bodies durable as consecutive frames: one write, one fsync.
// When it fails, none of bodies is durable and the log stays usable.
func (l *Log) Append(bodies ...[]byte) error {
	buf, err := appendFrames(l.buf[:0], bodies)
	l.buf = buf
	if err != nil {
		return err
	}
	if l.torn || l.f == nil {
		if err := l.reopen(); err != nil {
			return err
		}
	}
	if _, err := l.f.Write(buf); err != nil {
		l.torn = true
		return fmt.Errorf("journal: append %s: %w", l.path, err)
	}
	if err := l.f.Sync(); err != nil {
		l.torn = true
		return fmt.Errorf("journal: fsync %s: %w", l.path, err)
	}
	l.durable += int64(len(buf))
	return nil
}

// reopen closes the file — Close discards a failed append's possibly torn
// bytes — and opens it for append.
func (l *Log) reopen() error {
	if err := l.Close(); l.torn { // the truncation failed
		return err
	}
	f, err := l.fs.OpenAppend(l.path)
	if err != nil {
		return fmt.Errorf("journal: repair %s: %w", l.path, err)
	}
	l.f = f
	return nil
}

// Rewrite atomically replaces the log's contents with bodies: it writes a
// temp file in the same directory, fsyncs and closes it, renames it over
// the log, fsyncs the directory, and reopens the log for append. A failure
// before the rename leaves the old log in place and in use; after it, the
// new log is in use even when a later step fails.
func (l *Log) Rewrite(bodies [][]byte) error {
	buf, err := appendFrames(nil, bodies)
	if err != nil {
		return err
	}
	dir := filepath.Dir(l.path)
	tmp, err := l.fs.CreateTemp(dir, filepath.Ext(l.path)+"-*.tmp")
	if err != nil {
		return fmt.Errorf("journal: rewrite %s: %w", l.path, err)
	}
	tmpName := tmp.Name()
	defer l.fs.Remove(tmpName) // fails harmlessly after the rename
	if _, err := tmp.Write(buf); err != nil {
		tmp.Close()
		return fmt.Errorf("journal: rewrite %s: %w", l.path, err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("journal: rewrite %s: fsync: %w", l.path, err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("journal: rewrite %s: %w", l.path, err)
	}
	if err := l.fs.Rename(tmpName, l.path); err != nil {
		return fmt.Errorf("journal: rewrite %s: %w", l.path, err)
	}
	syncErr := l.fs.SyncDir(dir)
	// The old handle points at the unlinked file; if a step below fails,
	// the next Append reopens the new one. The new file is whole, so Close
	// must not cut it back to the old durable length.
	l.durable, l.torn = int64(len(buf)), false
	l.Close()
	if syncErr != nil {
		return fmt.Errorf("journal: rewrite %s: sync dir: %w", l.path, syncErr)
	}
	f, err := l.fs.OpenAppend(l.path)
	if err != nil {
		return fmt.Errorf("journal: reopen %s: %w", l.path, err)
	}
	l.f = f
	return nil
}

// Close releases the file handle. After a failed Append it also truncates
// the file back to its durable length, so the failed append's frames — whole
// ones too, when only the fsync failed — are not read back by the next Open.
// A later Append reopens the file, retrying a truncation that failed.
func (l *Log) Close() error {
	var err error
	if l.f != nil {
		err = l.f.Close()
		l.f = nil
	}
	if l.torn {
		if terr := l.fs.Truncate(l.path, l.durable); terr != nil {
			return fmt.Errorf("journal: repair %s: %w", l.path, terr)
		}
		l.torn = false
	}
	return err
}

// Remove closes the log and deletes its file.
func (l *Log) Remove() error {
	l.Close()
	if err := l.fs.Remove(l.path); err != nil && !errors.Is(err, fs.ErrNotExist) {
		return fmt.Errorf("journal: remove %s: %w", l.path, err)
	}
	return nil
}
