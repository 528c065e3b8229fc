package transport

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/relalg"
	"repro/internal/wire"
)

// Batcher tests: flush-on-drain (a lone message ships with no Flush and no
// clock), one frame per destination for the sends of one handler
// invocation, ack and heartbeat piggybacking, single-message passthrough
// (wire compatibility), ordering against non-batchable frames, quiescence
// accounting, flush-error counting, the Window bound on a long-running
// handler's cork, and flush on Close. Every test holds messages
// deterministically by sending from inside a handler invocation (the
// Batcher corks those until the handler returns) and uses Window: time.Hour
// so no clock can cut a frame.

// recordingInner captures every frame the Batcher hands to the wire, keeps
// the handlers registered through it so a test can run one invocation
// synchronously (deliver), rejects sends to the nodes in reject, and
// accounts TrackWork like a quiescence oracle would.
type recordingInner struct {
	mu       sync.Mutex
	envs     []wire.Envelope
	handlers map[string]Handler
	reject   map[string]bool
	closed   bool
	work     atomic.Int64
}

var errRejected = errors.New("recordingInner: destination rejected")

func (r *recordingInner) Register(node string, h Handler) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.handlers == nil {
		r.handlers = map[string]Handler{}
	}
	r.handlers[node] = h
	return nil
}

func (r *recordingInner) Send(from, to string, msg wire.Message) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.reject[to] {
		return errRejected
	}
	r.envs = append(r.envs, wire.Envelope{From: from, To: to, Msg: msg})
	return nil
}

func (r *recordingInner) Close() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.closed = true
	return nil
}

func (r *recordingInner) TrackWork(delta int) { r.work.Add(int64(delta)) }

func (r *recordingInner) frames() []wire.Envelope {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]wire.Envelope(nil), r.envs...)
}

// deliver runs node's registered handler for one envelope on the calling
// goroutine, as a transport's delivery loop would.
func (r *recordingInner) deliver(node string, env wire.Envelope) {
	r.mu.Lock()
	h := r.handlers[node]
	r.mu.Unlock()
	h(env)
}

// inHandler registers node on b and runs body as one invocation of its
// handler: every send body makes from node is corked until it returns.
func inHandler(t *testing.T, b *Batcher, inner *recordingInner, node string, body func()) {
	t.Helper()
	if err := b.Register(node, func(wire.Envelope) { body() }); err != nil {
		t.Fatal(err)
	}
	inner.deliver(node, wire.Envelope{From: "src", To: node, Msg: wire.Query{}})
}

// waitFrames waits until the inner transport holds n frames, then checks no
// more were held back: a Flush must add nothing.
func waitFrames(t *testing.T, b *Batcher, inner *recordingInner, n int) []wire.Envelope {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for len(inner.frames()) < n {
		if time.Now().After(deadline) {
			t.Fatalf("got %d frames, want %d: %+v", len(inner.frames()), n, inner.frames())
		}
		time.Sleep(100 * time.Microsecond)
	}
	if err := b.Flush(); err != nil {
		t.Fatal(err)
	}
	got := inner.frames()
	if len(got) != n {
		t.Fatalf("got %d frames, want exactly %d: %+v", len(got), n, got)
	}
	return got
}

func testAnswer(i int) wire.Answer {
	return wire.Answer{Epoch: 1, RuleID: "r", Part: "S", SubID: uint64(i),
		Tuples: []relalg.Tuple{{relalg.S("v")}}}
}

// TestBatcherCoalescesPerDestination pins the handler cork: the sends of one
// handler invocation stay held while it runs and leave, once it returns and
// with no Flush call, as one frame per destination — a batch where several
// messages share it, the plain message where one is alone.
func TestBatcherCoalescesPerDestination(t *testing.T) {
	inner := &recordingInner{}
	b := NewBatcher(inner, BatcherOptions{Window: time.Hour})
	defer b.Close()
	inHandler(t, b, inner, "A", func() {
		for i := 0; i < 5; i++ {
			if err := b.Send("A", "B", testAnswer(i)); err != nil {
				t.Error(err)
			}
		}
		if err := b.Send("A", "C", testAnswer(99)); err != nil {
			t.Error(err)
		}
		if got := inner.frames(); len(got) != 0 {
			t.Errorf("batcher cut %d frames while the handler was still running", len(got))
		}
	})
	got := waitFrames(t, b, inner, 2)
	for _, env := range got {
		switch env.To {
		case "B":
			batch, ok := env.Msg.(wire.AnswerBatch)
			if !ok {
				t.Fatalf("frame to B is %T, want AnswerBatch", env.Msg)
			}
			if len(batch.Answers) != 5 {
				t.Fatalf("batch to B holds %d answers, want 5", len(batch.Answers))
			}
			for i, a := range batch.Answers {
				if a.SubID != uint64(i) {
					t.Fatalf("batch reordered answers: %v", batch.Answers)
				}
			}
		case "C":
			// A lone message must go out plain for wire compatibility.
			if _, ok := env.Msg.(wire.Answer); !ok {
				t.Fatalf("single-message flush to C sent %T, want plain Answer", env.Msg)
			}
		default:
			t.Fatalf("unexpected destination %q", env.To)
		}
	}
	st := b.Stats()
	if st.Frames != 2 || st.Coalesced != 4 {
		t.Fatalf("stats = %+v, want Frames=2 Coalesced=4", st)
	}
}

// TestBatcherHandlerBurstOneFramePerDestination drives the cork end to end
// over the in-memory router: B reacts to one inbound AnswerBatch with a send
// to C and an ack to D per contained answer, and each destination receives
// exactly one frame.
func TestBatcherHandlerBurstOneFramePerDestination(t *testing.T) {
	mem := NewMem(MemOptions{Seed: 1})
	b := NewBatcher(mem, BatcherOptions{Window: time.Hour})
	defer b.Close()
	const n = 10
	if err := b.Register("B", func(env wire.Envelope) {
		for _, a := range env.Msg.(wire.AnswerBatch).Answers {
			_ = b.Send("B", "C", a)
			_ = b.Send("B", "D", wire.AnswerAck{RuleID: a.RuleID, SubID: a.SubID})
		}
	}); err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	recv := map[string][]wire.Message{}
	for _, node := range []string{"C", "D"} {
		node := node
		if err := b.Register(node, func(env wire.Envelope) {
			mu.Lock()
			recv[node] = append(recv[node], env.Msg)
			mu.Unlock()
		}); err != nil {
			t.Fatal(err)
		}
	}
	in := wire.AnswerBatch{}
	for i := 0; i < n; i++ {
		in.Answers = append(in.Answers, testAnswer(i))
	}
	if err := b.Send("A", "B", in); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := mem.WaitQuiescent(ctx); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(recv["C"]) != 1 || len(recv["D"]) != 1 {
		t.Fatalf("C got %d frames, D got %d, want one each", len(recv["C"]), len(recv["D"]))
	}
	if ab, ok := recv["C"][0].(wire.AnswerBatch); !ok || len(ab.Answers) != n {
		t.Fatalf("C got %+v, want one AnswerBatch of %d answers", recv["C"][0], n)
	}
	if ab, ok := recv["D"][0].(wire.AnswerBatch); !ok || len(ab.Acks) != n {
		t.Fatalf("D got %+v, want one AnswerBatch of %d acks", recv["D"][0], n)
	}
}

func TestBatcherPiggybacksAcksAndLatestHeartbeat(t *testing.T) {
	inner := &recordingInner{}
	b := NewBatcher(inner, BatcherOptions{Window: time.Hour})
	defer b.Close()
	inHandler(t, b, inner, "A", func() {
		_ = b.Send("A", "B", testAnswer(1))
		_ = b.Send("A", "B", wire.AnswerAck{RuleID: "r", SubID: 1, Seqs: map[string]uint64{"s": 3}})
		_ = b.Send("A", "B", wire.Heartbeat{Node: "A", Addr: "old"})
		_ = b.Send("A", "B", wire.Heartbeat{Node: "A", Addr: "new"})
		_ = b.Send("A", "B", testAnswer(2))
	})
	got := waitFrames(t, b, inner, 1)
	batch, ok := got[0].Msg.(wire.AnswerBatch)
	if !ok {
		t.Fatalf("frame is %T, want AnswerBatch", got[0].Msg)
	}
	if len(batch.Answers) != 2 || len(batch.Acks) != 1 {
		t.Fatalf("batch = %d answers / %d acks, want 2/1", len(batch.Answers), len(batch.Acks))
	}
	// Heartbeats are latest-wins: only the newest address matters.
	if len(batch.Beats) != 1 || batch.Beats[0].Addr != "new" {
		t.Fatalf("beats = %+v, want exactly the latest heartbeat", batch.Beats)
	}
	st := b.Stats()
	if st.PiggybackedAcks != 1 || st.PiggybackedBeats != 1 {
		t.Fatalf("stats = %+v, want PiggybackedAcks=1 PiggybackedBeats=1", st)
	}
}

// TestBatcherFlushesBeforePassthrough pins ordering: a non-batchable frame
// (here a Query) must not overtake answers already held for the same
// destination, so the pending batch flushes first — even mid-handler.
func TestBatcherFlushesBeforePassthrough(t *testing.T) {
	inner := &recordingInner{}
	b := NewBatcher(inner, BatcherOptions{Window: time.Hour})
	defer b.Close()
	var got []wire.Envelope
	inHandler(t, b, inner, "A", func() {
		_ = b.Send("A", "B", testAnswer(1))
		_ = b.Send("A", "B", testAnswer(2))
		_ = b.Send("A", "B", wire.Query{Epoch: 1, RuleID: "r"})
		got = inner.frames()
	})
	if len(got) != 2 {
		t.Fatalf("got %d frames, want batch then query: %+v", len(got), got)
	}
	if _, ok := got[0].Msg.(wire.AnswerBatch); !ok {
		t.Fatalf("first frame is %T, want the held AnswerBatch", got[0].Msg)
	}
	if _, ok := got[1].Msg.(wire.Query); !ok {
		t.Fatalf("second frame is %T, want the Query", got[1].Msg)
	}
}

// TestBatcherFlushOnIdle pins flush-on-drain: a lone message sent outside
// any handler reaches the inner transport with no Flush call, although the
// window is an hour — no clock holds it.
func TestBatcherFlushOnIdle(t *testing.T) {
	inner := &recordingInner{}
	b := NewBatcher(inner, BatcherOptions{Window: time.Hour})
	defer b.Close()
	if err := b.Send("A", "B", testAnswer(1)); err != nil {
		t.Fatal(err)
	}
	got := waitFrames(t, b, inner, 1)
	if _, ok := got[0].Msg.(wire.Answer); !ok {
		t.Fatalf("drain flush sent %T, want the plain Answer", got[0].Msg)
	}
}

// TestBatcherFlushOnClose pins flush-on-Close — even of sends a running
// handler still corks — and that Close leaves no flusher goroutine behind.
func TestBatcherFlushOnClose(t *testing.T) {
	inner := &recordingInner{}
	b := NewBatcher(inner, BatcherOptions{Window: time.Hour})
	inHandler(t, b, inner, "A", func() {
		_ = b.Send("A", "B", testAnswer(1))
		_ = b.Send("A", "B", testAnswer(2))
		if err := b.Close(); err != nil {
			t.Error(err)
		}
	})
	got := inner.frames()
	if len(got) != 1 {
		t.Fatalf("Close discarded held answers: %+v", got)
	}
	if batch, ok := got[0].Msg.(wire.AnswerBatch); !ok || len(batch.Answers) != 2 {
		t.Fatalf("Close flushed %T %+v, want a 2-answer batch", got[0].Msg, got[0].Msg)
	}
	if !inner.closed {
		t.Fatal("Close did not close the inner transport")
	}
	if err := b.Send("A", "B", testAnswer(3)); err == nil {
		t.Fatal("Send after Close must error")
	}
	// Close waited for the flusher; its goroutine must be gone (poll only
	// for the instant between its deferred Done and its exit).
	deadline := time.Now().Add(5 * time.Second)
	for flusherGoroutines() > 0 {
		if time.Now().After(deadline) {
			t.Fatalf("%d flusher goroutines still running after Close", flusherGoroutines())
		}
		time.Sleep(time.Millisecond)
	}
}

// flusherGoroutines counts live Batcher flusher goroutines.
func flusherGoroutines() int {
	buf := make([]byte, 1<<20)
	buf = buf[:runtime.Stack(buf, true)]
	return strings.Count(string(buf), "transport.(*Batcher).flushLoop")
}

func TestBatcherMaxBytesFlushesEarly(t *testing.T) {
	inner := &recordingInner{}
	a := testAnswer(1)
	b := NewBatcher(inner, BatcherOptions{Window: time.Hour, MaxBytes: 2 * a.Size()})
	defer b.Close()
	var got int
	inHandler(t, b, inner, "A", func() {
		for i := 0; i < 6; i++ {
			_ = b.Send("A", "B", testAnswer(i))
		}
		got = len(inner.frames())
	})
	if got != 3 {
		t.Fatalf("size trigger cut %d frames mid-handler for 6 answers at 2 per frame, want 3", got)
	}
}

// TestBatcherTrackWorkReturnsToZero pins the quiescence accounting: every
// held message is tracked until its frame reaches the inner transport, a
// replaced heartbeat is not tracked twice, and after every kind of flush —
// size trigger, passthrough, explicit Flush, drain — the count is back to
// zero.
func TestBatcherTrackWorkReturnsToZero(t *testing.T) {
	inner := &recordingInner{}
	a := testAnswer(1)
	b := NewBatcher(inner, BatcherOptions{Window: time.Hour, MaxBytes: 3 * a.Size()})
	defer b.Close()
	check := func(stage string, want int64) {
		t.Helper()
		if got := inner.work.Load(); got != want {
			t.Errorf("%s: tracked work = %d, want %d", stage, got, want)
		}
	}
	inHandler(t, b, inner, "A", func() {
		_ = b.Send("A", "B", testAnswer(1))
		_ = b.Send("A", "B", wire.Heartbeat{Node: "A", Addr: "x"})
		_ = b.Send("A", "B", wire.Heartbeat{Node: "A", Addr: "y"})
		check("answer + heartbeat held", 2)
		_ = b.Send("A", "B", testAnswer(2))
		_ = b.Send("A", "B", testAnswer(3))
		check("after the size trigger", 0)
		_ = b.Send("A", "C", testAnswer(4))
		_ = b.Send("A", "C", wire.Query{})
		check("after the passthrough flush", 0)
		_ = b.Send("A", "D", testAnswer(5))
		_ = b.Flush()
		check("after Flush", 0)
		_ = b.Send("A", "E", testAnswer(6))
		check("corked at handler end", 1)
	})
	waitFrames(t, b, inner, 5)
	check("after the drain flush", 0)
}

// TestBatcherCountsFlushErrors pins that a background flush the inner
// transport rejects is counted, not lost, and still releases its tracked
// work; other destinations are unaffected.
func TestBatcherCountsFlushErrors(t *testing.T) {
	inner := &recordingInner{reject: map[string]bool{"X": true}}
	b := NewBatcher(inner, BatcherOptions{Window: time.Hour})
	defer b.Close()
	if err := b.Send("A", "X", testAnswer(1)); err != nil {
		t.Fatal(err) // held: the error can only surface at flush time
	}
	deadline := time.Now().Add(5 * time.Second)
	for b.Stats().FlushErrors == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("rejected background flush never counted: %+v", b.Stats())
		}
		time.Sleep(100 * time.Microsecond)
	}
	if err := b.Send("A", "B", testAnswer(2)); err != nil {
		t.Fatal(err)
	}
	got := waitFrames(t, b, inner, 1)
	if got[0].To != "B" {
		t.Fatalf("frame went to %q, want B", got[0].To)
	}
	if st := b.Stats(); st.FlushErrors != 1 {
		t.Fatalf("stats = %+v, want FlushErrors=1", st)
	}
	if w := inner.work.Load(); w != 0 {
		t.Fatalf("tracked work = %d after a failed flush, want 0", w)
	}
}

// TestBatcherWindowBoundsCork pins the safety bound: a handler that keeps
// running has its held sends shipped once they are Window old, so a
// handler blocked on a reply to its own send cannot wedge.
func TestBatcherWindowBoundsCork(t *testing.T) {
	inner := &recordingInner{}
	b := NewBatcher(inner, BatcherOptions{Window: 5 * time.Millisecond})
	defer b.Close()
	inHandler(t, b, inner, "A", func() {
		_ = b.Send("A", "B", testAnswer(1))
		deadline := time.Now().Add(5 * time.Second)
		for len(inner.frames()) == 0 {
			if time.Now().After(deadline) {
				t.Error("corked send never shipped while its handler kept running")
				return
			}
			time.Sleep(100 * time.Microsecond)
		}
	})
}

// TestBatcherTracksHeldWorkWithMem drives a Batcher over the in-memory
// router and checks the quiescence oracle accounts for held batches: while
// A's handler corks its answer the oracle counts it, and WaitQuiescent does
// not return until B has received it.
func TestBatcherTracksHeldWorkWithMem(t *testing.T) {
	mem := NewMem(MemOptions{Seed: 1})
	b := NewBatcher(mem, BatcherOptions{Window: time.Hour})
	defer b.Close()
	var mu sync.Mutex
	var recv []wire.Message
	var inflightInHandler int
	if err := b.Register("A", func(wire.Envelope) {
		_ = b.Send("A", "B", testAnswer(1))
		inflightInHandler = mem.Inflight()
	}); err != nil {
		t.Fatal(err)
	}
	if err := b.Register("B", func(env wire.Envelope) {
		mu.Lock()
		recv = append(recv, env.Msg)
		mu.Unlock()
	}); err != nil {
		t.Fatal(err)
	}
	if err := b.Send("src", "A", wire.Query{}); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := mem.WaitQuiescent(ctx); err != nil {
		t.Fatal(err)
	}
	// Inside A's handler: the Query being handled plus the held answer.
	if inflightInHandler != 2 {
		t.Fatalf("held answer invisible to the quiescence oracle: Inflight()=%d in the handler, want 2", inflightInHandler)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(recv) != 1 {
		t.Fatalf("quiescent with %d deliveries to B, want 1", len(recv))
	}
	if n := mem.Inflight(); n != 0 {
		t.Fatalf("after delivery Inflight()=%d, want 0", n)
	}
}
