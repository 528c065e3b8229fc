package wal

import (
	"bufio"
	"fmt"
	"io"
	"os"

	"repro/internal/frame"
	"repro/internal/storage"
)

// Recovery. A store directory is rebuilt in two steps: load the newest
// complete snapshot (falling back to older ones when the newest is
// unreadable), then replay the log segments at or above the snapshot's
// coverage boundary in index order. Replay applies each segment's valid
// record prefix: a torn or corrupt frame ends that segment (the crashed
// generation's tail) but not the recovery — every later segment was written
// by a generation that had itself recovered exactly that prefix, so its
// records continue consistently from it. Insert records are idempotent by
// sequence number: seq <= current is a duplicate of snapshot or earlier
// replay and is skipped; a gap (seq > current+1) can only mean corruption
// and stops the replay at the last consistent prefix.

// recoverDir rebuilds the Recovered state of a store directory.
func recoverDir(dir string) (*Recovered, dirScan, error) {
	scan, err := scanDir(dir)
	if err != nil {
		return nil, dirScan{}, err
	}
	rec := &Recovered{DB: storage.New()}
	// A directory with no history at all is vacuously clean: there is
	// nothing whose durability could be in doubt.
	rec.Clean = len(scan.segs) == 0 && len(scan.snaps) == 0
	var coversBelow uint64
	for i := len(scan.snaps) - 1; i >= 0; i-- {
		counter := scan.snaps[i]
		db, st, cb, err := loadSnapshot(snapshotPath(dir, counter))
		if err != nil {
			continue // torn or corrupt snapshot: fall back to an older one
		}
		rec.DB, rec.State, coversBelow = db, st, cb
		rec.SnapshotCounter = counter
		break
	}
	for _, idx := range scan.segs {
		if idx < coversBelow {
			continue // fully compacted into the snapshot
		}
		n, lastClean, err := replaySegment(segmentPath(dir, idx), rec)
		if err != nil {
			return nil, dirScan{}, err
		}
		if n > 0 {
			rec.Segments++
			rec.Records += n
			rec.Clean = lastClean
		}
	}
	return rec, scan, nil
}

// replaySegment applies one segment's valid record prefix to rec. It returns
// the number of records applied and whether the last of them was a
// clean-close state record.
func replaySegment(path string, rec *Recovered) (int, bool, error) {
	f, err := os.Open(path)
	if err != nil {
		if os.IsNotExist(err) {
			return 0, false, nil // pruned between scan and replay
		}
		return 0, false, err
	}
	defer f.Close()
	br := bufio.NewReaderSize(f, 1<<16)
	magic := make([]byte, len(segMagic))
	if _, err := io.ReadFull(br, magic); err != nil || string(magic) != segMagic {
		return 0, false, nil // torn before the header: an empty generation
	}
	applied, lastClean := 0, false
	for {
		payload, ferr := frame.Read(br)
		if ferr != nil {
			return applied, lastClean, nil // io.EOF or torn tail: prefix ends
		}
		ok, clean, err := applyRecord(payload, rec)
		if err != nil {
			return applied, lastClean, err
		}
		if !ok {
			return applied, lastClean, nil // inconsistent continuation: stop
		}
		applied++
		lastClean = clean
	}
}

// applyRecord folds one decoded record into rec. ok=false stops the replay
// without error (the record is internally valid but inconsistent with the
// recovered prefix, e.g. a sequence gap after a mid-log tear).
func applyRecord(payload []byte, rec *Recovered) (ok, clean bool, err error) {
	r := &reader{b: payload[1:]}
	switch payload[0] {
	case recSchema:
		sch, err := decodeSchema(r)
		if err != nil {
			return false, false, nil // undecodable yet CRC-valid: treat as tail
		}
		if err := rec.DB.AddSchema(sch); err != nil {
			return false, false, nil // conflicting redeclaration: stop here
		}
		return true, false, nil
	case recInsert:
		rel, seq, t, err := decodeInsert(r)
		if err != nil {
			return false, false, nil
		}
		cur := rec.DB.Rel(rel)
		if cur == nil {
			return false, false, nil // insert before its schema: inconsistent
		}
		switch {
		case seq <= cur.Seq():
			return true, false, nil // already covered by the snapshot
		case seq == cur.Seq()+1:
			if _, err := rec.DB.Insert(rel, t, storage.InsertExact); err != nil {
				return false, false, nil
			}
			return true, false, nil
		default:
			return false, false, nil // sequence gap: stop at the prefix
		}
	case recState:
		st, cl, err := decodeState(r)
		if err != nil {
			return false, false, nil
		}
		rec.State = st
		rec.partIdx, rec.partSeen = nil, nil // parts replaced wholesale
		return true, cl, nil
	case recSubMarks:
		subs, err := decodeSubMarks(r)
		if err != nil {
			return false, false, nil
		}
		// The newest frontier record wins. A marks record written before a
		// later checkpoint replays after the snapshot state and understates
		// the frontier — which only ever re-sends more, never less.
		rec.State.Subs = subs
		return true, false, nil
	case recPartDelta:
		pd, err := decodePartDelta(r)
		if err != nil {
			return false, false, nil
		}
		rec.mergePart(pd)
		return true, false, nil
	case recSyncPoint:
		// Group-commit marker: everything before it was durable when it was
		// written. Recovery needs no action — surviving the crash is the
		// proof — but the kind must be recognised or replay would stop here.
		if _, err := r.uvarint(); err != nil {
			return false, false, nil
		}
		return true, false, nil
	default:
		return false, false, nil // unknown kind: written by a future version
	}
}

// String summarises a recovered store for diagnostics (cmd/p2pdb recover).
func (r *Recovered) String() string {
	clean := "unclean (marks = last acked frontier)"
	if r.Clean {
		clean = "clean"
	}
	return fmt.Sprintf("epoch %d, %d subscriptions, %d part results, %s; replayed %d records from %d segments (snapshot #%d)",
		r.State.Epoch, len(r.State.Subs), len(r.State.Parts), clean, r.Records, r.Segments, r.SnapshotCounter)
}
