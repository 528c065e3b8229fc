// Package frame owns the on-disk record format shared by every durable file
// in the system — the WAL's segments and snapshots, and the consensus
// applied and acceptor logs. A file is a caller-chosen magic header followed
// by a stream of frames:
//
//	[4B little-endian payload length][4B little-endian CRC-32 (IEEE) of payload][payload]
//
// A torn write — a crash mid frame — surfaces as a short read or a CRC
// mismatch, which every reader treats as the end of the durable prefix; the
// frame carries no pointers, so a valid prefix is always replayable on its
// own. The payload is opaque here: the WAL writes its binary records, the
// consensus logs write one standalone gob blob per entry (a per-entry
// encoder rather than one long gob stream, because a resumed stream would
// re-emit type definitions a single replay decoder rejects).
//
// Three ways to write frames cover the callers:
//
//   - Write onto any writer (WAL segments, which are never reopened: every
//     store generation starts a fresh one);
//   - ReplaceFile, an atomic whole-file write (tmp + fsync + rename + dir
//     fsync), so a crash leaves the old file or the new one, never a torn
//     half (WAL snapshots, log compaction);
//   - Log, an appendable file reopened across restarts: it replays the valid
//     prefix, truncates a torn tail, appends each frame with one write call
//     and rewrites itself atomically.
package frame

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
)

const (
	// Overhead is the per-frame header size in bytes.
	Overhead = 8
	// maxPayload bounds a single frame; longer length prefixes are read as
	// corruption, so a torn length field cannot trigger a giant allocation.
	maxPayload = 1 << 28
)

// ErrTorn reports a short frame, an implausible length or a CRC mismatch:
// the durable prefix ends here.
var ErrTorn = errors.New("frame: torn or corrupt record")

// errEmpty refuses a payload Read could not tell from a torn length field.
var errEmpty = errors.New("frame: empty payload")

var crcTable = crc32.MakeTable(crc32.IEEE)

// Write appends one frame to w. Payloads must not be empty.
func Write(w io.Writer, payload []byte) error {
	if len(payload) == 0 {
		return errEmpty
	}
	var hdr [Overhead]byte
	putHeader(hdr[:], payload)
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// appendFrame appends one frame to dst and returns the extended slice.
func appendFrame(dst, payload []byte) []byte {
	n := len(dst)
	dst = append(dst, make([]byte, Overhead)...)
	putHeader(dst[n:], payload)
	return append(dst, payload...)
}

func putHeader(hdr, payload []byte) {
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:8], crc32.Checksum(payload, crcTable))
}

// Read reads one frame. A clean EOF at a frame boundary returns io.EOF; a
// short frame, an implausible length, or a CRC mismatch returns ErrTorn.
func Read(r io.Reader) ([]byte, error) {
	var hdr [Overhead]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		if err == io.EOF {
			return nil, io.EOF
		}
		return nil, ErrTorn
	}
	n := binary.LittleEndian.Uint32(hdr[0:4])
	if n == 0 || n > maxPayload {
		return nil, ErrTorn
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		return nil, ErrTorn
	}
	if crc32.Checksum(payload, crcTable) != binary.LittleEndian.Uint32(hdr[4:8]) {
		return nil, ErrTorn
	}
	return payload, nil
}

// ReplaceFile writes path atomically: write renders the content into a
// buffered writer on path+".tmp", which is flushed, fsynced and renamed over
// path, and the directory is fsynced so the rename survives a crash. On any
// error the tmp file is removed and the old file stays in place.
func ReplaceFile(path string, write func(w io.Writer) error) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	bw := bufio.NewWriterSize(f, 1<<16)
	err = write(bw)
	if err == nil {
		err = bw.Flush()
	}
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		_ = os.Remove(tmp)
		return err
	}
	return SyncDir(filepath.Dir(path))
}

// SyncDir fsyncs the directory entry so created/renamed files survive a
// crash of the containing directory's metadata.
func SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// Log is an appendable frame file that is reopened across restarts. The
// methods of a nil *Log do nothing, so an optional log needs no guard at its
// call sites. A Log is not safe for concurrent use.
type Log struct {
	path  string
	magic string
	f     *os.File
	buf   []byte // reused frame buffer: one write call per Append
	count int
}

// OpenLog replays the frames of the log at path, passing each payload to
// each in order, and returns the log positioned to append after them. Replay
// stops at the first torn frame or the first payload each rejects; that
// frame and everything after it is truncated away, so later appends extend
// exactly the replayed prefix. A missing or empty file is created holding
// only the magic header (atomically, directory fsynced). A non-empty file
// that does not start with magic is refused with an error naming the path:
// it is some other file, and truncating it would destroy its contents.
func OpenLog(path, magic string, each func(payload []byte) error) (*Log, error) {
	l := &Log{path: path, magic: magic}
	good, torn, err := l.replay(each)
	if err != nil {
		return nil, err
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	if torn {
		err = f.Truncate(good)
		if err == nil {
			err = f.Sync()
		}
		if err != nil {
			_ = f.Close()
			return nil, err
		}
	}
	l.f = f
	return l, nil
}

// replay feeds the valid frame prefix to each and returns its end offset and
// whether bytes follow it, creating the log first when it is missing or
// empty.
func (l *Log) replay(each func(payload []byte) error) (good int64, torn bool, err error) {
	f, err := os.Open(l.path)
	if os.IsNotExist(err) {
		return int64(len(l.magic)), false, ReplaceFile(l.path, l.writeHeader)
	}
	if err != nil {
		return 0, false, err
	}
	defer f.Close()
	br := bufio.NewReaderSize(f, 1<<16)
	head := make([]byte, len(l.magic))
	if _, err := io.ReadFull(br, head); err != nil || string(head) != l.magic {
		if err == io.EOF {
			return int64(len(l.magic)), false, ReplaceFile(l.path, l.writeHeader)
		}
		return 0, false, fmt.Errorf("frame: %s: not a %q log (foreign or damaged header)", l.path, l.magic)
	}
	good = int64(len(l.magic))
	for {
		payload, err := Read(br)
		if err == io.EOF {
			return good, false, nil
		}
		if err != nil || each(payload) != nil {
			return good, true, nil
		}
		good += int64(Overhead + len(payload))
		l.count++
	}
}

func (l *Log) writeHeader(w io.Writer) error {
	_, err := io.WriteString(w, l.magic)
	return err
}

// Append writes one frame with a single write call — header and payload
// together, so a crash mid call cannot leave a half frame that replay would
// mistake for the prefix end with good frames behind it — then fsyncs when
// sync is set.
func (l *Log) Append(payload []byte, sync bool) error {
	if l == nil {
		return nil
	}
	if len(payload) == 0 {
		return errEmpty
	}
	l.buf = appendFrame(l.buf[:0], payload)
	if _, err := l.f.Write(l.buf); err != nil {
		return err
	}
	l.count++
	if sync {
		return l.f.Sync()
	}
	return nil
}

// Rewrite replaces the whole log with the given payloads through
// ReplaceFile (compaction, or a reset to a snapshot), so a crash mid rewrite
// leaves either the old log or the new one. On error the old file and
// writer stay in place.
func (l *Log) Rewrite(payloads [][]byte) error {
	if l == nil {
		return nil
	}
	err := ReplaceFile(l.path, func(w io.Writer) error {
		if err := l.writeHeader(w); err != nil {
			return err
		}
		for _, p := range payloads {
			if err := Write(w, p); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	f, err := os.OpenFile(l.path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		// Degraded: the old descriptor now points at the unlinked file, so
		// appends keep the process running but do not survive a restart.
		return err
	}
	_ = l.f.Close()
	l.f = f
	l.count = len(payloads)
	return nil
}

// Count returns the number of frames in the log: the replayed prefix plus
// every append since, reset by Rewrite (a compaction trigger).
func (l *Log) Count() int {
	if l == nil {
		return 0
	}
	return l.count
}

// Close closes the log file.
func (l *Log) Close() error {
	if l == nil {
		return nil
	}
	return l.f.Close()
}
