package wal

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"repro/internal/frame"
)

// Segment files. The log is a sequence of append-only segment files
// wal-<index>.seg; the store writes to exactly one (the active segment) and
// rolls to a fresh one when the size threshold is crossed. Sealed segments
// are immutable: they are flushed, fsynced and closed at the roll, which is
// what makes them safe inputs for the background checkpointer. Every store
// generation opens a brand-new segment, so a torn tail from a crash is never
// appended after — recovery can treat each segment's valid prefix as final.

const (
	segMagic   = "p2pwal01"
	snapMagic  = "p2psnp01"
	segSuffix  = ".seg"
	snapSuffix = ".ckpt"
)

func segmentPath(dir string, idx uint64) string {
	return filepath.Join(dir, fmt.Sprintf("wal-%016d%s", idx, segSuffix))
}

func snapshotPath(dir string, counter uint64) string {
	return filepath.Join(dir, fmt.Sprintf("snap-%016d%s", counter, snapSuffix))
}

// segment is the active segment writer.
type segment struct {
	f    *os.File
	w    *bufio.Writer
	size int64
	idx  uint64
	recs int // records appended to this segment
}

func createSegment(dir string, idx uint64) (*segment, error) {
	f, err := os.OpenFile(segmentPath(dir, idx), os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, err
	}
	s := &segment{f: f, w: bufio.NewWriterSize(f, 1<<16), idx: idx}
	if _, err := s.w.WriteString(segMagic); err != nil {
		_ = f.Close()
		return nil, err
	}
	s.size = int64(len(segMagic))
	return s, nil
}

func (s *segment) append(payload []byte) error {
	if err := frame.Write(s.w, payload); err != nil {
		return err
	}
	s.size += int64(len(payload) + frame.Overhead)
	s.recs++
	return nil
}

func (s *segment) flush() error { return s.w.Flush() }

func (s *segment) sync() error { return s.f.Sync() }

// seal flushes, fsyncs and closes the segment, making it immutable.
func (s *segment) seal() error {
	if err := s.w.Flush(); err != nil {
		return err
	}
	if err := s.f.Sync(); err != nil {
		return err
	}
	return s.f.Close()
}

// dirScan lists a store directory's segment indexes and snapshot counters in
// ascending order.
type dirScan struct {
	segs  []uint64
	snaps []uint64
}

func (d dirScan) maxSeg() uint64 {
	if len(d.segs) == 0 {
		return 0
	}
	return d.segs[len(d.segs)-1]
}

func (d dirScan) maxSnap() uint64 {
	if len(d.snaps) == 0 {
		return 0
	}
	return d.snaps[len(d.snaps)-1]
}

func scanDir(dir string) (dirScan, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return dirScan{}, err
	}
	var out dirScan
	for _, e := range entries {
		name := e.Name()
		switch {
		case strings.HasPrefix(name, "wal-") && strings.HasSuffix(name, segSuffix):
			if n, err := strconv.ParseUint(strings.TrimSuffix(strings.TrimPrefix(name, "wal-"), segSuffix), 10, 64); err == nil {
				out.segs = append(out.segs, n)
			}
		case strings.HasPrefix(name, "snap-") && strings.HasSuffix(name, snapSuffix):
			if n, err := strconv.ParseUint(strings.TrimSuffix(strings.TrimPrefix(name, "snap-"), snapSuffix), 10, 64); err == nil {
				out.snaps = append(out.snaps, n)
			}
		}
	}
	sort.Slice(out.segs, func(i, j int) bool { return out.segs[i] < out.segs[j] })
	sort.Slice(out.snaps, func(i, j int) bool { return out.snaps[i] < out.snaps[j] })
	return out, nil
}
