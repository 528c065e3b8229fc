// Package wal is the durable backend of a peer's local database: a
// log-structured, segment-based write-ahead log plus a snapshot/checkpoint
// format that together persist a node's relations, schemas, update epoch,
// per-subscription high-water marks and accumulated part results, so a peer
// can leave the network — or crash — and rejoin with the coordination state
// it had materialised (the robustness regime the paper's model assumes and
// ROADMAP's "persistent backend" names).
//
// Layering: the store sits under storage.DB through its listener seams — a
// successful insert appends one record (relation, tuple, seq) to the active
// segment, a new schema declaration appends a declaration record — and above
// nothing: the DB remains the in-memory source of truth and the log is
// write-behind. Durability is tunable per store (FsyncAlways — group-commit
// fsync before the insert returns; FsyncInterval — a background flusher
// bounds the loss window; FsyncNever — the OS decides, clean Close still
// seals durably). A background checkpointer compacts sealed segments into a
// snapshot keyed by per-relation sequence high-water marks; recovery loads
// the newest complete snapshot and replays the log tail, tolerating torn
// tails (a crash mid write costs the torn record and nothing before it).
//
// Relation sequence numbers are the recovery cursor: they are the same
// counters the delta optimisation's storage.Marks index, which is why a
// recovered store can hand a source its subscriptions back and have it
// re-answer only post-crash deltas. The marks persisted between checkpoints
// are the ACKED frontiers of the answer-acknowledgment handshake (SaveMarks
// appends one small record per advance; AppendParts logs the part tuples a
// dependent acknowledged), so they stay trustworthy even when the log does
// NOT end with a clean-close record: a frontier only ever advanced after
// the dependent had the data on stable storage — under FsyncNever that
// guarantee comes from SyncPoint group commits rather than per-record
// fsyncs. Orchestration that runs without the handshake still distrusts
// unclean marks and re-answers in full (receivers deduplicate).
package wal

import (
	"errors"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/frame"
	"repro/internal/relalg"
	"repro/internal/storage"
)

// FsyncPolicy selects when appended records are forced to stable storage.
type FsyncPolicy uint8

const (
	// FsyncInterval (the default) flushes and fsyncs on a background cadence
	// (Options.FsyncEvery): bounded loss window, near in-memory throughput.
	FsyncInterval FsyncPolicy = iota
	// FsyncAlways makes every append durable before it returns, with group
	// commit: concurrent appends piggyback on one fsync.
	FsyncAlways
	// FsyncNever leaves routine flushing to segment rolls, checkpoints and
	// Close; a crash may lose everything since the last seal or SyncPoint
	// (explicit group commits — the acknowledgment gate — still hit disk).
	FsyncNever
)

// String renders the policy ("interval", "always", "never").
func (p FsyncPolicy) String() string {
	switch p {
	case FsyncAlways:
		return "always"
	case FsyncNever:
		return "never"
	default:
		return "interval"
	}
}

// ParseFsyncPolicy parses the String rendering (for command-line flags).
func ParseFsyncPolicy(s string) (FsyncPolicy, error) {
	switch s {
	case "interval", "":
		return FsyncInterval, nil
	case "always":
		return FsyncAlways, nil
	case "never":
		return FsyncNever, nil
	}
	return 0, fmt.Errorf("wal: unknown fsync policy %q (want always, interval or never)", s)
}

// Options tunes a store.
type Options struct {
	// Fsync selects the durability policy (default FsyncInterval).
	Fsync FsyncPolicy
	// FsyncEvery is the background flush cadence under FsyncInterval
	// (default 25ms).
	FsyncEvery time.Duration
	// SegmentBytes is the roll threshold of the active segment (default 1MiB).
	SegmentBytes int64
	// NoCheckpointer disables the background checkpointer (crash tests pin
	// the on-disk layout; production stores leave it on).
	NoCheckpointer bool
}

func (o Options) withDefaults() Options {
	if o.FsyncEvery <= 0 {
		o.FsyncEvery = 25 * time.Millisecond
	}
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = 1 << 20
	}
	return o
}

// SubState is one source-side subscription's durable form: the question it
// answers (conjunction + columns) and the per-relation high-water marks up to
// which results have been shipped.
type SubState struct {
	Dependent string
	RuleID    string
	Epoch     uint64
	Conj      string
	Cols      []string
	Marks     storage.Marks
	Primed    bool
}

// PartState is one rule part's accumulated result set at the head node
// (multi-source rules join their parts locally; losing them would lose
// old-x-new join combinations forever, exactly as across epoch bumps).
type PartState struct {
	RuleID string
	Part   string
	Cols   []string
	Tuples []relalg.Tuple
}

// State is the protocol state a store persists beside the database: the
// update epoch, the subscriptions this node serves, and the part results it
// has accumulated.
type State struct {
	Epoch uint64
	Subs  []SubState
	Parts []PartState
}

// Recovered is the result of opening (or inspecting) a store directory.
type Recovered struct {
	// DB is the rebuilt database: snapshot plus replayed log tail.
	DB *storage.DB
	// State is the last persisted protocol state (zero when none was ever
	// written).
	State State
	// Clean reports whether the log ends with a clean-close record. When
	// false, State.Subs holds the newest acked-frontier record instead of a
	// close-time state; callers running the acknowledgment handshake may
	// trust it (the frontier never ran ahead of dependent durability), while
	// callers without the handshake should resume subscriptions unprimed
	// (full re-answer).
	Clean bool
	// Segments and Records count the replayed log tail (diagnostics).
	Segments int
	Records  int
	// SnapshotCounter identifies the snapshot recovery started from (0 =
	// none).
	SnapshotCounter uint64

	// Replay-time merge indexes for incremental part records (recPartDelta):
	// rebuilt lazily, invalidated whenever a full state record replaces
	// State wholesale.
	partIdx  map[string]int              // ruleID\x00part -> index into State.Parts
	partSeen map[string]*relalg.TupleSet // ruleID\x00part -> tuples present
}

// mergePart folds one replayed part-delta record into the recovered state,
// deduplicating tuples (re-sent answers append the same tuples again; the
// merge is idempotent, like insert replay).
func (r *Recovered) mergePart(pd PartState) {
	if r.partIdx == nil {
		r.partIdx = map[string]int{}
		r.partSeen = map[string]*relalg.TupleSet{}
		for i := range r.State.Parts {
			p := &r.State.Parts[i]
			key := p.RuleID + "\x00" + p.Part
			r.partIdx[key] = i
			seen := relalg.NewTupleSet(len(p.Tuples))
			for _, t := range p.Tuples {
				seen.Add(t)
			}
			r.partSeen[key] = seen
		}
	}
	key := pd.RuleID + "\x00" + pd.Part
	i, ok := r.partIdx[key]
	if !ok {
		r.State.Parts = append(r.State.Parts, PartState{RuleID: pd.RuleID, Part: pd.Part, Cols: pd.Cols})
		i = len(r.State.Parts) - 1
		r.partIdx[key] = i
		r.partSeen[key] = &relalg.TupleSet{}
	}
	seen := r.partSeen[key]
	for _, t := range pd.Tuples {
		if seen.Add(t) {
			r.State.Parts[i].Tuples = append(r.State.Parts[i].Tuples, t)
		}
	}
}

// Store is an open write-ahead log for one node.
type Store struct {
	dir  string
	opts Options

	mu        sync.Mutex
	seg       *segment
	segIdx    uint64
	loggedSch map[string]bool
	appendSeq uint64 // records appended this generation (commit cohort counter)
	err       error  // sticky I/O error: the store goes read-only
	closed    bool
	db        *storage.DB // attached database (checkpoint source)

	syncMu    sync.Mutex
	syncedSeq uint64 // cohorts made durable; guarded by syncMu

	stateMu   sync.Mutex
	stateFn   func() State
	marksFn   func() []SubState
	lastState State

	snapCounter atomic.Uint64

	sealCh   chan struct{}
	quit     chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup
}

// Open recovers the store in dir (creating the directory when absent) and
// opens a fresh active segment for appending. The returned Recovered holds
// the rebuilt database and protocol state; the store itself starts empty of
// listeners — call Attach and SetStateSource to wire it under a live node.
func Open(dir string, opts Options) (*Store, *Recovered, error) {
	opts = opts.withDefaults()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, err
	}
	rec, scan, err := recoverDir(dir)
	if err != nil {
		return nil, nil, err
	}
	s := &Store{
		dir:       dir,
		opts:      opts,
		segIdx:    scan.maxSeg() + 1,
		loggedSch: map[string]bool{},
		sealCh:    make(chan struct{}, 1),
		quit:      make(chan struct{}),
	}
	for _, sch := range rec.DB.Schemas() {
		s.loggedSch[sch.Name] = true
	}
	s.lastState = rec.State
	s.snapCounter.Store(scan.maxSnap())
	s.seg, err = createSegment(dir, s.segIdx)
	if err != nil {
		return nil, nil, err
	}
	if err := frame.SyncDir(dir); err != nil {
		_ = s.seg.f.Close()
		return nil, nil, err
	}
	if opts.Fsync == FsyncInterval {
		s.wg.Add(1)
		go s.flushLoop()
	}
	if !opts.NoCheckpointer {
		s.wg.Add(1)
		go s.checkpointLoop()
	}
	return s, rec, nil
}

// Inspect recovers a store directory without opening it for writing: nothing
// on disk changes. Used by tooling (cmd/p2pdb recover) and tests.
func Inspect(dir string) (*Recovered, error) {
	rec, _, err := recoverDir(dir)
	return rec, err
}

// Attach wires the store under a database: every already-declared schema is
// logged (recovered ones are deduplicated), and listeners append a record per
// future schema declaration and committed insert. The database must follow
// the storage package's single-writer discipline per relation, so records
// reach the log in sequence order.
func (s *Store) Attach(db *storage.DB) {
	s.mu.Lock()
	s.db = db
	s.mu.Unlock()
	db.AddSchemaListener(func(sch relalg.Schema) { s.appendSchema(sch) })
	db.AddInsertListener(func(rel string, t relalg.Tuple, seq uint64) { s.appendInsert(rel, t, seq) })
	for _, sch := range db.Schemas() {
		s.appendSchema(sch)
	}
}

// SetStateSource registers the callback providing the protocol state to
// persist at checkpoints and on Close (orchestration wires it to the owning
// peer). Until set, checkpoints carry the recovered state forward.
func (s *Store) SetStateSource(fn func() State) {
	s.stateMu.Lock()
	s.stateFn = fn
	s.stateMu.Unlock()
}

// SetMarksSource registers the callback providing the subscriptions' durable
// (acknowledged) frontiers for SaveMarks. Orchestration wires it to the
// owning peer's DurableSubs.
func (s *Store) SetMarksSource(fn func() []SubState) {
	s.stateMu.Lock()
	s.marksFn = fn
	s.stateMu.Unlock()
}

// SaveMarks appends a marks-only frontier record: the subscriptions this node
// serves with the per-relation sequence frontiers its dependents have
// acknowledged. Recovery takes the newest such record, so a crash restart
// resumes subscriptions from the last confirmed frontier instead of
// distrusting the marks wholesale. The record is small (no part results), so
// appending one per acknowledged advance is cheap; under FsyncAlways it is
// made durable before returning, like any other append. A no-op until a
// marks source is registered.
func (s *Store) SaveMarks() error {
	s.stateMu.Lock()
	fn := s.marksFn
	s.stateMu.Unlock()
	if fn == nil {
		return nil
	}
	payload := encodeSubMarks(fn())
	s.mu.Lock()
	n, ok := s.appendLocked(payload)
	err := s.err
	s.mu.Unlock()
	if ok && s.opts.Fsync == FsyncAlways {
		return s.syncTo(n)
	}
	return err
}

// AppendParts appends the tuples newly merged into one rule part's
// accumulated result set. Together with SaveMarks this closes the crash half
// of the acknowledgment handshake: a dependent only acknowledges an answer
// after its derived inserts AND the part tuples backing future multi-source
// joins are in the log, so a source's acked frontier never runs ahead of
// what the dependent can actually recover. Under FsyncAlways the append is
// durable before the call returns; under FsyncInterval the pre-ack Sync
// covers it.
func (s *Store) AppendParts(p PartState) error {
	payload, err := encodePartDelta(p)
	if err != nil {
		s.mu.Lock()
		if s.err == nil {
			s.err = err
		}
		s.mu.Unlock()
		return err
	}
	s.mu.Lock()
	n, ok := s.appendLocked(payload)
	err = s.err
	s.mu.Unlock()
	if ok && s.opts.Fsync == FsyncAlways {
		return s.syncTo(n)
	}
	return err
}

// Dir returns the store directory.
func (s *Store) Dir() string { return s.dir }

// Seq returns the number of records appended this generation (the commit
// cohort high water). Exposed for observability (metrics endpoints).
func (s *Store) Seq() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.appendSeq
}

// Err returns the sticky I/O error, if any append has failed.
func (s *Store) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}

func (s *Store) appendSchema(sch relalg.Schema) {
	s.mu.Lock()
	if s.loggedSch[sch.Name] {
		s.mu.Unlock()
		return
	}
	s.loggedSch[sch.Name] = true
	n, ok := s.appendLocked(encodeSchema(sch))
	s.mu.Unlock()
	if ok && s.opts.Fsync == FsyncAlways {
		_ = s.syncTo(n)
	}
}

func (s *Store) appendInsert(rel string, t relalg.Tuple, seq uint64) {
	payload, err := encodeInsert(rel, seq, t)
	if err != nil {
		s.mu.Lock()
		if s.err == nil {
			s.err = err
		}
		s.mu.Unlock()
		return
	}
	s.mu.Lock()
	n, ok := s.appendLocked(payload)
	s.mu.Unlock()
	if ok && s.opts.Fsync == FsyncAlways {
		_ = s.syncTo(n)
	}
}

// appendLocked writes one record to the active segment, rolling first when
// the threshold is crossed. It returns this append's commit cohort number.
// Callers hold s.mu.
func (s *Store) appendLocked(payload []byte) (uint64, bool) {
	if s.closed || s.err != nil {
		return 0, false
	}
	if s.seg.recs > 0 && s.seg.size+int64(len(payload)+frame.Overhead) > s.opts.SegmentBytes {
		if err := s.rollLocked(); err != nil {
			s.err = err
			return 0, false
		}
	}
	if err := s.seg.append(payload); err != nil {
		s.err = err
		return 0, false
	}
	s.appendSeq++
	return s.appendSeq, true
}

// rollLocked seals the active segment and opens the next one, waking the
// checkpointer. Callers hold s.mu.
func (s *Store) rollLocked() error {
	if err := s.seg.seal(); err != nil {
		return err
	}
	s.segIdx++
	seg, err := createSegment(s.dir, s.segIdx)
	if err != nil {
		return err
	}
	s.seg = seg
	if err := frame.SyncDir(s.dir); err != nil {
		return err
	}
	select {
	case s.sealCh <- struct{}{}:
	default:
	}
	return nil
}

// syncTo makes at least the first n commit cohorts durable. Concurrent
// callers group-commit: whoever acquires the sync lock first flushes and
// fsyncs everything appended so far, and the rest observe their cohort
// already covered.
func (s *Store) syncTo(n uint64) error {
	s.syncMu.Lock()
	defer s.syncMu.Unlock()
	if s.syncedSeq >= n {
		return nil
	}
	s.mu.Lock()
	if s.closed || s.err != nil {
		err := s.err
		if err == nil {
			// Closed without a sticky error: the requested cohorts may sit in
			// a buffer that will never flush (Abort). Callers gating
			// acknowledgments on durability must not read this as success.
			err = errors.New("wal: store closed")
		}
		s.mu.Unlock()
		return err
	}
	target := s.appendSeq
	if err := s.seg.flush(); err != nil {
		s.err = err
		s.mu.Unlock()
		return err
	}
	f := s.seg.f
	s.mu.Unlock()
	// The fsync runs outside s.mu so appends keep flowing during the wait.
	// A roll may seal (sync + close) the file concurrently; its own fsync
	// covered our cohort, so a close race is success, not failure.
	//lint:allow locksend syncMu is the group-commit lock: serialising fsyncs is its entire job, and waiters are exactly the cohort the running fsync covers
	if err := f.Sync(); err != nil && !errors.Is(err, os.ErrClosed) {
		s.mu.Lock()
		if s.err == nil {
			s.err = err
		}
		s.mu.Unlock()
		return err
	}
	if target > s.syncedSeq {
		s.syncedSeq = target
	}
	return nil
}

// Sync flushes and fsyncs everything appended so far.
func (s *Store) Sync() error {
	s.mu.Lock()
	n := s.appendSeq
	s.mu.Unlock()
	return s.syncTo(n)
}

// SyncPoint appends a group-commit marker covering everything appended so
// far and makes the log durable up to and including it, regardless of the
// fsync policy. It is the acknowledgment gate for FsyncNever stores: the
// policy skips per-record fsyncs, but an ack promising durability still gets
// a real group commit — many acknowledgments pipeline onto one sync point —
// so a crash restart trusts the recovered marks and re-answers delta-only
// instead of distrusting every frontier. Concurrent callers group-commit
// through the same sync lock as Sync.
func (s *Store) SyncPoint() error {
	s.mu.Lock()
	payload := encodeSyncPoint(s.appendSeq)
	n, ok := s.appendLocked(payload)
	err := s.err
	s.mu.Unlock()
	if !ok {
		return err
	}
	return s.syncTo(n)
}

// flushLoop is the FsyncInterval background flusher.
func (s *Store) flushLoop() {
	defer s.wg.Done()
	t := time.NewTicker(s.opts.FsyncEvery)
	defer t.Stop()
	for {
		select {
		case <-s.quit:
			return
		case <-t.C:
			_ = s.Sync()
		}
	}
}

// checkpointLoop compacts sealed segments whenever a roll signals one.
func (s *Store) checkpointLoop() {
	defer s.wg.Done()
	for {
		select {
		case <-s.quit:
			return
		case <-s.sealCh:
			_ = s.Checkpoint()
		}
	}
}

func (s *Store) stopBackground() {
	s.stopOnce.Do(func() { close(s.quit) })
	s.wg.Wait()
}

// captureState asks the registered source for the current protocol state,
// falling back to the last known (recovered) state.
func (s *Store) captureState() State {
	s.stateMu.Lock()
	fn := s.stateFn
	last := s.lastState
	s.stateMu.Unlock()
	if fn == nil {
		return last
	}
	st := fn()
	s.stateMu.Lock()
	s.lastState = st
	s.stateMu.Unlock()
	return st
}

// Close stops the background goroutines, appends a final clean-close state
// record (epoch, subscriptions with their marks, part results), and seals
// the active segment durably — under every fsync policy, so a cleanly closed
// store always reopens with trustworthy marks. Further appends no-op.
func (s *Store) Close() error {
	s.stopBackground()
	st := s.captureState()
	payload, encErr := encodeState(st, true)
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return s.err
	}
	s.closed = true
	if s.err == nil && encErr == nil {
		if err := s.seg.append(payload); err != nil {
			s.err = err
		}
	}
	if s.err == nil && encErr != nil {
		s.err = encErr
	}
	if err := s.seg.seal(); err != nil && s.err == nil {
		s.err = err
	}
	return s.err
}

// Abort simulates power loss for crash tests: background goroutines stop and
// the active segment's file handle closes without flushing, so everything
// still sitting in the write buffer is lost, exactly as unsynced data would
// be. No clean-close record is written — a subsequent Open reports
// Clean=false.
func (s *Store) Abort() {
	s.stopBackground()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return
	}
	s.closed = true
	_ = s.seg.f.Close()
}
