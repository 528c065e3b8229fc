package transport

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/wire"
)

// Batcher wraps any Transport with a batched, ack-piggybacked wire protocol:
// Answers bound for the same destination coalesce into a single
// wire.AnswerBatch frame, AnswerAcks owed to that destination piggyback on
// the same frame instead of paying their own, and (in cluster mode) a
// pending membership Heartbeat rides along too. Every other message kind
// flushes the destination's buffer first and passes through unbatched, so
// ordering between data and control frames (Queries, Goodbyes, coordinator
// verbs) is preserved.
//
// The paper's update propagation only requires per-update closure, not
// per-tuple messaging: on chatty topologies (cliques, cycles) most frames are
// small answers and their acks between the same pair of peers, and batching
// them amortises the per-frame overhead by an order of magnitude without
// changing the fix-point — receivers apply a batch's contents exactly as if
// each message had arrived alone.
//
// Flush-on-drain (group commit): no message waits on a clock. The first
// message held wakes the flusher, which yields to the senders until a
// scheduling round passes with nothing new held — the burst has drained —
// and then ships every buffer. Messages that arrive while it ships ride the
// next frame, so frames coalesce only under load. Sends a registered
// handler makes while it processes one inbound frame are corked until the
// handler returns: a reaction to one AnswerBatch leaves as one frame per
// destination. Window bounds that cork — a handler still running after
// Window has its held sends shipped anyway — and delays nothing else.
//
// Quiescence: when the inner transport offers WorkTracker (the in-memory
// router), every held message is accounted as in-flight work until its frame
// reaches the inner transport, so the quiescence oracle never declares a
// network settled with batches still buffered. Close flushes everything
// before closing the inner transport (flush-on-Close), so final acks and
// trailing frames still drain.
type Batcher struct {
	inner   Transport
	window  time.Duration
	maxByte int
	tracker WorkTracker // inner's quiescence accounting, when offered

	mu       sync.Mutex
	bufs     map[[2]string]*batchBuf // only non-empty buffers: a flush deletes its entry
	handlers map[string]*handlerRun  // registered nodes' handler activity
	armed    bool                    // the flusher has been kicked and has not yet flushed
	closed   bool

	added atomic.Uint64 // messages ever held; the flusher watches a burst drain on it
	kick  chan struct{}
	quit  chan struct{}
	wg    sync.WaitGroup

	frames      atomic.Uint64 // frames handed to the inner transport
	coalesced   atomic.Uint64 // messages that shared a frame instead of paying their own
	piggyAcks   atomic.Uint64 // acks that piggybacked on a batched frame
	piggyHB     atomic.Uint64 // heartbeats that piggybacked on a batched frame
	flushErrors atomic.Uint64 // held-traffic frames the inner transport rejected
}

// BatcherOptions tunes a Batcher.
type BatcherOptions struct {
	// Window bounds how long a registered handler that is still running may
	// cork the sends it made (default 2ms). It delays nothing else: every
	// other held message ships as soon as its send burst drains.
	Window time.Duration
	// MaxBytes flushes a destination's buffer once its estimated payload
	// reaches this size, so a burst never builds an oversized frame
	// (default 64KiB).
	MaxBytes int
}

// BatchStats snapshots a Batcher's frame accounting.
type BatchStats struct {
	// Frames counts wire frames handed to the inner transport (batched
	// frames, flushed singles and passthroughs alike).
	Frames uint64
	// Coalesced counts messages that shared a frame with an earlier message
	// instead of paying their own — the frames saved by batching.
	Coalesced uint64
	// PiggybackedAcks counts AnswerAcks that rode in a batched frame.
	PiggybackedAcks uint64
	// PiggybackedBeats counts Heartbeats that rode in a batched frame.
	PiggybackedBeats uint64
	// FlushErrors counts flushes of held traffic the inner transport
	// rejected. Most flushes run on the background flusher, where no caller
	// sees the error; this counter does.
	FlushErrors uint64
}

// batchBuf is the held traffic for one (from, to) pair.
type batchBuf struct {
	answers    []wire.Answer
	acks       []wire.AnswerAck
	beat       *wire.Heartbeat
	repAppends []wire.ReplicaAppend
	repAcks    []wire.ReplicaAck
	deltas     []wire.WatchDelta
	bytes      int
	since      time.Time // when the buffer opened
	gen        uint64    // the sender's handler generation when the buffer opened
}

func (b *batchBuf) count() int {
	n := len(b.answers) + len(b.acks) + len(b.repAppends) + len(b.repAcks) + len(b.deltas)
	if b.beat != nil {
		n++
	}
	return n
}

// handlerRun tracks one registered node's handler invocations.
type handlerRun struct {
	running int    // invocations in progress
	gen     uint64 // invocations started
}

// NewBatcher wraps inner with batching. The Batcher owns the inner transport:
// Close flushes all buffers and closes it.
func NewBatcher(inner Transport, opts BatcherOptions) *Batcher {
	if opts.Window <= 0 {
		opts.Window = 2 * time.Millisecond
	}
	if opts.MaxBytes <= 0 {
		opts.MaxBytes = 64 << 10
	}
	b := &Batcher{
		inner:    inner,
		window:   opts.Window,
		maxByte:  opts.MaxBytes,
		bufs:     map[[2]string]*batchBuf{},
		handlers: map[string]*handlerRun{},
		kick:     make(chan struct{}, 1),
		quit:     make(chan struct{}),
	}
	b.tracker, _ = inner.(WorkTracker)
	b.wg.Add(1)
	go b.flushLoop()
	return b
}

// Inner returns the wrapped transport. Orchestration asserts transport
// capabilities (Quiescer, Stepper, FaultInjector) against it: the Batcher
// itself is a send-side buffer, not an oracle.
func (b *Batcher) Inner() Transport { return b.inner }

// Stats snapshots the frame accounting.
func (b *Batcher) Stats() BatchStats {
	return BatchStats{
		Frames:           b.frames.Load(),
		Coalesced:        b.coalesced.Load(),
		PiggybackedAcks:  b.piggyAcks.Load(),
		PiggybackedBeats: b.piggyHB.Load(),
		FlushErrors:      b.flushErrors.Load(),
	}
}

// Register implements Transport: the handler attaches to the inner
// transport (receiving is untouched by batching), wrapped so the Batcher
// knows when the node is mid-reaction and corks the node's sends until the
// reaction ends.
func (b *Batcher) Register(node string, h Handler) error {
	b.mu.Lock()
	run := b.handlers[node]
	if run == nil {
		run = &handlerRun{}
		b.handlers[node] = run
	}
	b.mu.Unlock()
	return b.inner.Register(node, func(env wire.Envelope) {
		b.mu.Lock()
		run.running++
		run.gen++
		b.mu.Unlock()
		defer b.handlerDone(run)
		h(env)
	})
}

// handlerDone ends one handler invocation; the sends it corked become
// shippable, so the flusher is woken for them.
func (b *Batcher) handlerDone(run *handlerRun) {
	b.mu.Lock()
	run.running--
	if len(b.bufs) > 0 {
		b.kickLocked()
	}
	b.mu.Unlock()
}

// TrackWork implements WorkTracker by delegation, so layers above the
// Batcher (a peer's pipelined ack worker) reach the inner oracle through it.
func (b *Batcher) TrackWork(delta int) {
	if b.tracker != nil {
		b.tracker.TrackWork(delta)
	}
}

// Send implements Transport. Answers, AnswerAcks, Heartbeats, replication
// and watch-stream frames are held for coalescing; any other kind flushes
// the destination first and passes through, preserving order.
func (b *Batcher) Send(from, to string, msg wire.Message) error {
	key := [2]string{from, to}
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return ErrClosed
	}
	var buf *batchBuf
	switch m := msg.(type) {
	case wire.Answer:
		buf = b.buf(key)
		buf.answers = append(buf.answers, m)
		buf.bytes += m.Size()
	case wire.AnswerAck:
		buf = b.buf(key)
		buf.acks = append(buf.acks, m)
		buf.bytes += m.Size()
	case wire.Heartbeat:
		buf = b.buf(key)
		replaced := buf.beat != nil
		hb := m
		buf.beat = &hb // latest wins: a heartbeat only asserts "still alive"
		if replaced {
			b.mu.Unlock()
			return nil
		}
	case wire.ReplicaAppend:
		// The replication stream batches like the answer stream it mirrors:
		// a primary's flush round produces one append per relation per
		// mirror, and they share a frame per destination.
		buf = b.buf(key)
		buf.repAppends = append(buf.repAppends, m)
		buf.bytes += m.Size()
	case wire.ReplicaAck:
		buf = b.buf(key)
		buf.repAcks = append(buf.repAcks, m)
		buf.bytes += m.Size()
	case wire.WatchDelta:
		// Watch-stream deliveries batch like the answer stream: a hot relation
		// fanning out to many remote watchers of one client shares frames.
		buf = b.buf(key)
		buf.deltas = append(buf.deltas, m)
		buf.bytes += m.Size()
	default:
		err := b.flushLocked(key)
		b.frames.Add(1)
		// The lock must span flush + pass-through or another sender could
		// interleave a frame between them and break FIFO per destination.
		// Both inner transports enqueue or spawn without waiting on delivery.
		serr := b.inner.Send(from, to, msg) //lint:allow locksend inner.Send enqueues/spawns (TCP outbox, Mem inbox) and never blocks on the network; the lock preserves flush-then-frame order
		b.mu.Unlock()
		if serr != nil {
			return serr
		}
		return err
	}
	b.TrackWork(1)
	b.added.Add(1)
	var err error
	if buf.bytes >= b.maxByte {
		err = b.flushLocked(key)
	} else {
		b.kickLocked()
	}
	b.mu.Unlock()
	return err
}

// buf returns (creating on demand) the destination's buffer. Callers hold mu.
func (b *Batcher) buf(key [2]string) *batchBuf {
	buf := b.bufs[key]
	if buf == nil {
		buf = &batchBuf{since: time.Now()}
		if run := b.handlers[key[0]]; run != nil {
			buf.gen = run.gen
		}
		b.bufs[key] = buf
	}
	return buf
}

// kickLocked wakes the flusher unless it is already on its way. Callers
// hold mu.
func (b *Batcher) kickLocked() {
	if b.armed {
		return
	}
	b.armed = true
	select {
	case b.kick <- struct{}{}:
	default:
	}
}

// corkedLocked reports whether buf belongs to the handler invocation its
// sender is still running: the reaction is not over, so its frame is not
// cut yet. Callers hold mu.
func (b *Batcher) corkedLocked(key [2]string, buf *batchBuf) bool {
	run := b.handlers[key[0]]
	return run != nil && run.running > 0 && run.gen == buf.gen
}

// flushLocked ships one destination's held traffic: a lone message goes out
// as itself (wire compatibility — an unbatched receiver understands it), two
// or more coalesce into an AnswerBatch. Callers hold mu.
func (b *Batcher) flushLocked(key [2]string) error {
	buf := b.bufs[key]
	if buf == nil {
		return nil
	}
	delete(b.bufs, key)
	n := buf.count()
	var msg wire.Message
	switch {
	case n == 1 && len(buf.answers) == 1:
		msg = buf.answers[0]
	case n == 1 && len(buf.acks) == 1:
		msg = buf.acks[0]
	case n == 1 && buf.beat != nil:
		msg = *buf.beat
	case n == 1 && len(buf.repAppends) == 1:
		msg = buf.repAppends[0]
	case n == 1 && len(buf.repAcks) == 1:
		msg = buf.repAcks[0]
	case n == 1 && len(buf.deltas) == 1:
		msg = buf.deltas[0]
	default:
		ab := wire.AnswerBatch{Answers: buf.answers, Acks: buf.acks,
			RepAppends: buf.repAppends, RepAcks: buf.repAcks,
			WatchDeltas: buf.deltas}
		if buf.beat != nil {
			ab.Beats = []wire.Heartbeat{*buf.beat}
		}
		msg = ab
		b.coalesced.Add(uint64(n - 1))
		b.piggyAcks.Add(uint64(len(buf.acks)))
		if buf.beat != nil {
			b.piggyHB.Add(1)
		}
	}
	b.frames.Add(1)
	err := b.inner.Send(key[0], key[1], msg)
	b.TrackWork(-n)
	if err != nil {
		b.flushErrors.Add(1)
	}
	return err
}

// flushAllLocked drains every buffer. Callers hold mu.
func (b *Batcher) flushAllLocked() error {
	var first error
	for key := range b.bufs {
		if err := b.flushLocked(key); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Flush forces every held message onto the inner transport immediately.
func (b *Batcher) Flush() error {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.flushAllLocked()
}

// maxDrainYields caps how long the flusher waits for a burst to drain, so
// senders that never pause cannot starve the flush.
const maxDrainYields = 32

// flushLoop is the group-commit flusher. A kick means something is held; it
// lets the burst drain, then ships every buffer whose handler invocation is
// over. Buffers still corked by a running handler ship when that handler
// returns (which kicks again) or, failing that, once they are Window old.
func (b *Batcher) flushLoop() {
	defer b.wg.Done()
	cork := time.NewTimer(b.window)
	cork.Stop()
	defer cork.Stop()
	for {
		select {
		case <-b.quit:
			return
		case <-b.kick:
		case <-cork.C:
		}
		b.awaitDrain()
		b.mu.Lock()
		b.armed = false
		now := time.Now()
		var oldest time.Time
		for key, buf := range b.bufs {
			if b.corkedLocked(key, buf) && now.Sub(buf.since) < b.window {
				if oldest.IsZero() || buf.since.Before(oldest) {
					oldest = buf.since
				}
				continue
			}
			_ = b.flushLocked(key) // counted in flushErrors
		}
		b.mu.Unlock()
		if !cork.Stop() {
			select {
			case <-cork.C:
			default:
			}
		}
		if !oldest.IsZero() {
			cork.Reset(oldest.Add(b.window).Sub(now))
		}
	}
}

// awaitDrain yields to the senders until a scheduling round passes in which
// nothing new was held: the send burst has drained.
func (b *Batcher) awaitDrain() {
	n := b.added.Load()
	for i := 0; i < maxDrainYields; i++ {
		runtime.Gosched()
		m := b.added.Load()
		if m == n {
			return
		}
		n = m
	}
}

// Close flushes every buffer, stops the flusher and closes the inner
// transport (flush-on-Close: trailing acks and Goodbyes queued behind held
// answers still drain).
func (b *Batcher) Close() error {
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return b.inner.Close()
	}
	b.closed = true
	_ = b.flushAllLocked() // counted in flushErrors; shutdown errors also surface via inner.Close
	b.mu.Unlock()
	close(b.quit)
	b.wg.Wait()
	return b.inner.Close()
}

var (
	_ Transport   = (*Batcher)(nil)
	_ WorkTracker = (*Batcher)(nil)
)
