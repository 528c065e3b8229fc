package wal

import (
	"encoding/binary"
	"fmt"
	"sort"

	"repro/internal/relalg"
	"repro/internal/storage"
)

// Record encoding. Every segment and snapshot is a magic header followed by
// frames in the shared on-disk format (package frame: length, CRC-32,
// payload). The payload starts with a one-byte record kind.

// Record kinds.
const (
	recSchema    byte = 1 // relation declaration: name, attributes
	recInsert    byte = 2 // one committed tuple: relation, seq, values
	recState     byte = 3 // protocol state: epoch, subscriptions, part results
	recSnapHead  byte = 4 // snapshot header: the segment index it covers up to
	recRelation  byte = 5 // snapshot bulk: relation name + tuples in log order
	recSnapEnd   byte = 6 // snapshot completeness marker
	recSubMarks  byte = 7 // subscriptions with their acked frontiers (marks only, no parts)
	recPartDelta byte = 8 // newly received part tuples of one rule part
	recSyncPoint byte = 9 // group-commit marker: everything before it reached stable storage
)

// ---------------------------------------------------------------------------
// Payload encoding primitives

func appendUvarint(b []byte, v uint64) []byte { return binary.AppendUvarint(b, v) }

func appendString(b []byte, s string) []byte {
	b = appendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

func appendValue(b []byte, v relalg.Value) ([]byte, error) {
	enc, err := v.MarshalBinary()
	if err != nil {
		return b, err
	}
	b = appendUvarint(b, uint64(len(enc)))
	return append(b, enc...), nil
}

func appendTuple(b []byte, t relalg.Tuple) ([]byte, error) {
	b = appendUvarint(b, uint64(len(t)))
	var err error
	for _, v := range t {
		if b, err = appendValue(b, v); err != nil {
			return b, err
		}
	}
	return b, nil
}

func appendStrings(b []byte, ss []string) []byte {
	b = appendUvarint(b, uint64(len(ss)))
	for _, s := range ss {
		b = appendString(b, s)
	}
	return b
}

// reader decodes a record payload.
type reader struct{ b []byte }

var errShortRecord = fmt.Errorf("wal: truncated record payload")

func (r *reader) uvarint() (uint64, error) {
	v, n := binary.Uvarint(r.b)
	if n <= 0 {
		return 0, errShortRecord
	}
	r.b = r.b[n:]
	return v, nil
}

func (r *reader) take(n uint64) ([]byte, error) {
	if uint64(len(r.b)) < n {
		return nil, errShortRecord
	}
	out := r.b[:n]
	r.b = r.b[n:]
	return out, nil
}

func (r *reader) byteval() (byte, error) {
	raw, err := r.take(1)
	if err != nil {
		return 0, err
	}
	return raw[0], nil
}

func (r *reader) str() (string, error) {
	n, err := r.uvarint()
	if err != nil {
		return "", err
	}
	raw, err := r.take(n)
	if err != nil {
		return "", err
	}
	return string(raw), nil
}

func (r *reader) strings() ([]string, error) {
	n, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	out := make([]string, 0, n)
	for i := uint64(0); i < n; i++ {
		s, err := r.str()
		if err != nil {
			return nil, err
		}
		out = append(out, s)
	}
	return out, nil
}

func (r *reader) value() (relalg.Value, error) {
	n, err := r.uvarint()
	if err != nil {
		return relalg.Value{}, err
	}
	raw, err := r.take(n)
	if err != nil {
		return relalg.Value{}, err
	}
	var v relalg.Value
	if err := v.UnmarshalBinary(raw); err != nil {
		return relalg.Value{}, err
	}
	return v, nil
}

func (r *reader) tuple() (relalg.Tuple, error) {
	n, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	t := make(relalg.Tuple, 0, n)
	for i := uint64(0); i < n; i++ {
		v, err := r.value()
		if err != nil {
			return nil, err
		}
		t = append(t, v)
	}
	return t, nil
}

func (r *reader) tuples() ([]relalg.Tuple, error) {
	n, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	out := make([]relalg.Tuple, 0, n)
	for i := uint64(0); i < n; i++ {
		t, err := r.tuple()
		if err != nil {
			return nil, err
		}
		out = append(out, t)
	}
	return out, nil
}

// ---------------------------------------------------------------------------
// Record payloads

func encodeSchema(s relalg.Schema) []byte {
	b := []byte{recSchema}
	b = appendString(b, s.Name)
	return appendStrings(b, s.Attrs)
}

func decodeSchema(r *reader) (relalg.Schema, error) {
	name, err := r.str()
	if err != nil {
		return relalg.Schema{}, err
	}
	attrs, err := r.strings()
	if err != nil {
		return relalg.Schema{}, err
	}
	return relalg.Schema{Name: name, Attrs: attrs}, nil
}

func encodeInsert(rel string, seq uint64, t relalg.Tuple) ([]byte, error) {
	b := []byte{recInsert}
	b = appendString(b, rel)
	b = appendUvarint(b, seq)
	return appendTuple(b, t)
}

func decodeInsert(r *reader) (rel string, seq uint64, t relalg.Tuple, err error) {
	if rel, err = r.str(); err != nil {
		return
	}
	if seq, err = r.uvarint(); err != nil {
		return
	}
	t, err = r.tuple()
	return
}

// appendSubState encodes one subscription's durable form (shared by the full
// state record and the marks-only record).
func appendSubState(b []byte, sub SubState) []byte {
	b = appendString(b, sub.Dependent)
	b = appendString(b, sub.RuleID)
	b = appendUvarint(b, sub.Epoch)
	b = appendString(b, sub.Conj)
	b = appendStrings(b, sub.Cols)
	rels := make([]string, 0, len(sub.Marks))
	for rel := range sub.Marks {
		rels = append(rels, rel)
	}
	sort.Strings(rels)
	b = appendUvarint(b, uint64(len(rels)))
	for _, rel := range rels {
		b = appendString(b, rel)
		b = appendUvarint(b, sub.Marks[rel])
	}
	if sub.Primed {
		b = append(b, 1)
	} else {
		b = append(b, 0)
	}
	return b
}

func (r *reader) subState() (SubState, error) {
	var sub SubState
	var err error
	if sub.Dependent, err = r.str(); err != nil {
		return sub, err
	}
	if sub.RuleID, err = r.str(); err != nil {
		return sub, err
	}
	if sub.Epoch, err = r.uvarint(); err != nil {
		return sub, err
	}
	if sub.Conj, err = r.str(); err != nil {
		return sub, err
	}
	if sub.Cols, err = r.strings(); err != nil {
		return sub, err
	}
	nmarks, err := r.uvarint()
	if err != nil {
		return sub, err
	}
	sub.Marks = make(storage.Marks, nmarks)
	for j := uint64(0); j < nmarks; j++ {
		rel, err := r.str()
		if err != nil {
			return sub, err
		}
		seq, err := r.uvarint()
		if err != nil {
			return sub, err
		}
		sub.Marks[rel] = seq
	}
	pb, err := r.byteval()
	if err != nil {
		return sub, err
	}
	sub.Primed = pb == 1
	return sub, nil
}

// encodeSubMarks is the marks-only frontier record: the full subscription set
// with acked marks, appended whenever an acknowledgment advances a frontier.
// It deliberately omits part results — those are persisted incrementally by
// recPartDelta records — so the per-ack append stays small.
func encodeSubMarks(subs []SubState) []byte {
	b := []byte{recSubMarks}
	b = appendUvarint(b, uint64(len(subs)))
	for _, sub := range subs {
		b = appendSubState(b, sub)
	}
	return b
}

func decodeSubMarks(r *reader) ([]SubState, error) {
	n, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	subs := make([]SubState, 0, n)
	for i := uint64(0); i < n; i++ {
		sub, err := r.subState()
		if err != nil {
			return nil, err
		}
		subs = append(subs, sub)
	}
	return subs, nil
}

// encodeSyncPoint is the group-commit marker: it records the append sequence
// it covers and is itself fsynced before the writer proceeds, so every record
// at or below that sequence is known durable wherever the marker survives a
// crash. It is what lets FsyncNever stores gate acknowledgments on real
// durability without paying a per-record fsync.
func encodeSyncPoint(covered uint64) []byte {
	b := []byte{recSyncPoint}
	return appendUvarint(b, covered)
}

// encodePartDelta records the tuples newly merged into one rule part's
// accumulated result set, so crash recovery can rebuild the parts a node
// acknowledged without a full re-answer from its sources.
func encodePartDelta(p PartState) ([]byte, error) {
	b := []byte{recPartDelta}
	b = appendString(b, p.RuleID)
	b = appendString(b, p.Part)
	b = appendStrings(b, p.Cols)
	return appendTuples(b, p.Tuples)
}

func decodePartDelta(r *reader) (PartState, error) {
	var p PartState
	var err error
	if p.RuleID, err = r.str(); err != nil {
		return p, err
	}
	if p.Part, err = r.str(); err != nil {
		return p, err
	}
	if p.Cols, err = r.strings(); err != nil {
		return p, err
	}
	p.Tuples, err = r.tuples()
	return p, err
}

func encodeState(st State, clean bool) ([]byte, error) {
	b := []byte{recState}
	if clean {
		b = append(b, 1)
	} else {
		b = append(b, 0)
	}
	b = appendUvarint(b, st.Epoch)
	b = appendUvarint(b, uint64(len(st.Subs)))
	var err error
	for _, sub := range st.Subs {
		b = appendSubState(b, sub)
	}
	b = appendUvarint(b, uint64(len(st.Parts)))
	for _, part := range st.Parts {
		b = appendString(b, part.RuleID)
		b = appendString(b, part.Part)
		b = appendStrings(b, part.Cols)
		if b, err = appendTuples(b, part.Tuples); err != nil {
			return nil, err
		}
	}
	return b, nil
}

func appendTuples(b []byte, ts []relalg.Tuple) ([]byte, error) {
	b = appendUvarint(b, uint64(len(ts)))
	var err error
	for _, t := range ts {
		if b, err = appendTuple(b, t); err != nil {
			return b, err
		}
	}
	return b, nil
}

func decodeState(r *reader) (st State, clean bool, err error) {
	cb, err := r.byteval()
	if err != nil {
		return st, false, err
	}
	clean = cb == 1
	if st.Epoch, err = r.uvarint(); err != nil {
		return st, false, err
	}
	nsubs, err := r.uvarint()
	if err != nil {
		return st, false, err
	}
	for i := uint64(0); i < nsubs; i++ {
		sub, err := r.subState()
		if err != nil {
			return st, false, err
		}
		st.Subs = append(st.Subs, sub)
	}
	nparts, err := r.uvarint()
	if err != nil {
		return st, false, err
	}
	for i := uint64(0); i < nparts; i++ {
		var part PartState
		if part.RuleID, err = r.str(); err != nil {
			return st, false, err
		}
		if part.Part, err = r.str(); err != nil {
			return st, false, err
		}
		if part.Cols, err = r.strings(); err != nil {
			return st, false, err
		}
		if part.Tuples, err = r.tuples(); err != nil {
			return st, false, err
		}
		st.Parts = append(st.Parts, part)
	}
	return st, clean, nil
}

// EncodeState renders st as the WAL's binary state record — the payload of
// a replication stream's ReplicaState. Marks are written sorted, so equal
// states encode to equal bytes.
func EncodeState(st State) ([]byte, error) { return encodeState(st, false) }

// DecodeState parses an EncodeState blob.
func DecodeState(b []byte) (State, error) {
	if len(b) == 0 || b[0] != recState {
		return State{}, fmt.Errorf("wal: not a state record")
	}
	st, _, err := decodeState(&reader{b: b[1:]})
	return st, err
}
