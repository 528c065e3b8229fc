package main

import (
	"bufio"
	"fmt"
	"math/rand"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/transport"
	"repro/internal/wire"
)

// maxSpans caps the spans a traced run keeps in memory; later spans are
// counted but not stored (their aggregates still are).
const maxSpans = 200_000

// replayCap is how many sent envelopes a traced run keeps for replaying the
// wire codec after the measured phase.
const replayCap = 4096

// span is one timed interval at a layer boundary. Times are offsets from the
// recorder's epoch.
type span struct {
	id, parent uint64
	name       string
	req        string // request ID: the inserted key in the live workload
	start, end time.Duration
}

// recorder collects a traced run's spans and the per-layer aggregates the
// traced transport measures. A nil *recorder is an untraced run: every
// method is a no-op, so workloads call them unconditionally.
type recorder struct {
	epoch  time.Time
	nextID atomic.Uint64
	// current is the innermost open span of the workload goroutine: sends
	// made by peers while a core or coordinator call runs hang under it.
	current atomic.Uint64

	mu      sync.Mutex
	spans   []span
	dropped int
	nodes   map[string]bool // nodes whose handlers the traced transport wraps
	queues  map[queueKey][]pendingSend
	replay  []wire.Envelope
	seen    int // envelopes offered to the replay reservoir
	rng     *rand.Rand
	waits   samples // send → receiving handler start, ms
	handles samples // handler run time, ms
	busy    map[string]time.Duration
	sends   uint64
	bytes   uint64 // payload estimate (wire.Message.Size) of every send
}

// queueKey identifies a FIFO of sends awaiting their receiving handler.
// Answers and acks share the "data" class because the Batcher may deliver
// them inside one AnswerBatch.
type queueKey struct{ from, to, class string }

type pendingSend struct {
	at   time.Time
	span uint64
}

func newRecorder(seed int64) *recorder {
	return &recorder{
		epoch:  time.Now(),
		nodes:  map[string]bool{},
		queues: map[queueKey][]pendingSend{},
		busy:   map[string]time.Duration{},
		rng:    rand.New(rand.NewSource(seed)),
	}
}

// openSpan is a span still running on the workload goroutine.
type openSpan struct {
	r      *recorder
	id     uint64
	parent uint64
	name   string
	req    string
	start  time.Time
}

// begin opens a span under the workload goroutine's innermost open span.
func (r *recorder) begin(name, req string) *openSpan {
	if r == nil {
		return nil
	}
	s := &openSpan{r: r, id: r.nextID.Add(1), parent: r.current.Load(), name: name, req: req, start: time.Now()}
	r.current.Store(s.id)
	return s
}

// spanID is the span's ID, 0 for the nil span of an untraced run.
func (s *openSpan) spanID() uint64 {
	if s == nil {
		return 0
	}
	return s.id
}

// end closes the span; its parent becomes the innermost open span again.
func (s *openSpan) end() {
	if s == nil {
		return
	}
	r := s.r
	r.mu.Lock()
	r.addLocked(span{id: s.id, parent: s.parent, name: s.name, req: s.req,
		start: s.start.Sub(r.epoch), end: time.Since(r.epoch)})
	r.mu.Unlock()
	r.current.Store(s.parent)
}

// event records an already-timed span (watch deliveries, handler runs).
func (r *recorder) event(name, req string, parent uint64, start, end time.Time) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.addLocked(span{id: r.nextID.Add(1), parent: parent, name: name, req: req,
		start: start.Sub(r.epoch), end: end.Sub(r.epoch)})
	r.mu.Unlock()
}

func (r *recorder) addLocked(s span) {
	if len(r.spans) >= maxSpans {
		r.dropped++
		return
	}
	r.spans = append(r.spans, s)
}

// durations returns the run times of every recorded span with this name.
func (r *recorder) durations(name string) samples {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	var out samples
	for _, s := range r.spans {
		if s.name == name {
			out.add(s.end - s.start)
		}
	}
	return out
}

// messageClass maps a message kind to its send queue.
func messageClass(kind string) string {
	switch kind {
	case "answer", "answerAck", "answerBatch":
		return "data"
	}
	return kind
}

// sent records one send through the traced transport.
func (r *recorder) sent(from, to string, msg wire.Message, start, end time.Time, err error, keep bool) {
	id := r.nextID.Add(1)
	r.mu.Lock()
	defer r.mu.Unlock()
	r.addLocked(span{id: id, parent: r.current.Load(), name: "transport.send", start: start.Sub(r.epoch), end: end.Sub(r.epoch)})
	r.sends++
	r.bytes += uint64(msg.Size())
	if err != nil {
		return // nothing will arrive; the peer counts the error itself
	}
	if r.nodes[to] {
		k := queueKey{from, to, messageClass(msg.Kind())}
		r.queues[k] = append(r.queues[k], pendingSend{at: start, span: id})
	}
	if keep {
		// Reservoir sample: every envelope sent has the same chance of
		// being replayed through the codec.
		r.seen++
		env := wire.Envelope{From: from, To: to, Msg: msg}
		if len(r.replay) < replayCap {
			r.replay = append(r.replay, env)
		} else if j := r.rng.Intn(r.seen); j < replayCap {
			r.replay[j] = env
		}
	}
}

// received pops the sends an arriving envelope carries and returns the span
// of the first, the parent of the handler span.
func (r *recorder) received(env wire.Envelope, at time.Time) uint64 {
	n := 1
	if b, ok := env.Msg.(wire.AnswerBatch); ok {
		n = len(b.Answers) + len(b.Acks)
	}
	k := queueKey{env.From, env.To, messageClass(env.Msg.Kind())}
	r.mu.Lock()
	defer r.mu.Unlock()
	q := r.queues[k]
	if n > len(q) {
		n = len(q)
	}
	var parent uint64
	for i := 0; i < n; i++ {
		if i == 0 {
			parent = q[i].span
		}
		r.waits.add(at.Sub(q[i].at))
	}
	r.queues[k] = q[n:]
	return parent
}

func (r *recorder) handled(kind string, parent uint64, start, end time.Time) {
	d := end.Sub(start)
	r.mu.Lock()
	r.busy[kind] += d
	r.handles.add(d)
	r.addLocked(span{id: r.nextID.Add(1), parent: parent, name: "peer.handle." + kind,
		start: start.Sub(r.epoch), end: end.Sub(r.epoch)})
	r.mu.Unlock()
}

// tracedTransport wraps the transport a traced run hands to core.Build:
// every send becomes a transport.send span, every registered handler is
// timed, and each arrival is matched to its send for the frame wait.
type tracedTransport struct {
	inner transport.Transport
	rec   *recorder
	// encodes marks an inner transport that gob-encodes frames (TCP), whose
	// sends are sampled for the wire codec replay.
	encodes bool
}

func (t *tracedTransport) Register(node string, h transport.Handler) error {
	t.rec.mu.Lock()
	t.rec.nodes[node] = true
	t.rec.mu.Unlock()
	return t.inner.Register(node, func(env wire.Envelope) {
		start := time.Now()
		parent := t.rec.received(env, start)
		h(env)
		t.rec.handled(env.Msg.Kind(), parent, start, time.Now())
	})
}

func (t *tracedTransport) Send(from, to string, msg wire.Message) error {
	start := time.Now()
	err := t.inner.Send(from, to, msg)
	t.rec.sent(from, to, msg, start, time.Now(), err, t.encodes)
	return err
}

// Close also forgets the sends still awaiting arrival — after a Crash they
// never arrive — so the next network's arrivals are not matched to them.
func (t *tracedTransport) Close() error {
	err := t.inner.Close()
	t.rec.mu.Lock()
	clear(t.rec.queues)
	t.rec.mu.Unlock()
	return err
}

// traceTransport wraps inner for a traced run. The wrapper has exactly the
// capabilities inner has — Quiescer, Stepper, WorkTracker, FaultInjector —
// because core and peer discover them by type assertion: a wrapper that
// hid the Mem router's quiescence oracle would silently switch core to
// counter polling, and one that claimed an oracle TCP lacks would lie.
func traceTransport(inner transport.Transport, rec *recorder, encodes bool) transport.Transport {
	t := &tracedTransport{inner: inner, rec: rec, encodes: encodes}
	q, isQ := inner.(transport.Quiescer)
	s, isS := inner.(transport.Stepper)
	w, isW := inner.(transport.WorkTracker)
	f, isF := inner.(transport.FaultInjector)
	type (
		Q = transport.Quiescer
		S = transport.Stepper
		W = transport.WorkTracker
		F = transport.FaultInjector
		T = *tracedTransport
	)
	switch {
	case isQ && isS && isW && isF:
		return struct {
			T
			Q
			S
			W
			F
		}{t, q, s, w, f}
	case isQ && isS && isW:
		return struct {
			T
			Q
			S
			W
		}{t, q, s, w}
	case isQ && isS && isF:
		return struct {
			T
			Q
			S
			F
		}{t, q, s, f}
	case isQ && isW && isF:
		return struct {
			T
			Q
			W
			F
		}{t, q, w, f}
	case isS && isW && isF:
		return struct {
			T
			S
			W
			F
		}{t, s, w, f}
	case isQ && isS:
		return struct {
			T
			Q
			S
		}{t, q, s}
	case isQ && isW:
		return struct {
			T
			Q
			W
		}{t, q, w}
	case isQ && isF:
		return struct {
			T
			Q
			F
		}{t, q, f}
	case isS && isW:
		return struct {
			T
			S
			W
		}{t, s, w}
	case isS && isF:
		return struct {
			T
			S
			F
		}{t, s, f}
	case isW && isF:
		return struct {
			T
			W
			F
		}{t, w, f}
	case isQ:
		return struct {
			T
			Q
		}{t, q}
	case isS:
		return struct {
			T
			S
		}{t, s}
	case isW:
		return struct {
			T
			W
		}{t, w}
	case isF:
		return struct {
			T
			F
		}{t, f}
	}
	return t
}

// wireReplay re-encodes and decodes the sampled envelopes. It reports how
// many encoded bytes the codec writes per byte of payload estimate
// (wire.Message.Size, which the send counters sum) and the mean codec cost
// per frame.
func (r *recorder) wireReplay() (expansion, encodeUS, decodeUS float64, err error) {
	r.mu.Lock()
	envs := append([]wire.Envelope(nil), r.replay...)
	r.mu.Unlock()
	if len(envs) == 0 {
		return 0, 0, 0, nil
	}
	frames := make([][]byte, len(envs))
	t0 := time.Now()
	for i, env := range envs {
		if frames[i], err = wire.Encode(env); err != nil {
			return 0, 0, 0, fmt.Errorf("replay encode %s: %w", env.Msg.Kind(), err)
		}
	}
	enc := time.Since(t0)
	t1 := time.Now()
	for _, f := range frames {
		if _, err := wire.Decode(f); err != nil {
			return 0, 0, 0, fmt.Errorf("replay decode: %w", err)
		}
	}
	dec := time.Since(t1)
	encoded, payload := 0, 0
	for i, env := range envs {
		encoded += len(frames[i])
		payload += env.Msg.Size()
	}
	n := float64(len(envs))
	return ratio(float64(encoded), float64(payload)), float64(enc.Microseconds()) / n, float64(dec.Microseconds()) / n, nil
}

// layerStats is the per-layer slice the traced transport measured.
type layerStats struct {
	busy    map[string]time.Duration
	handles samples
	waits   samples
	sends   uint64
	bytes   uint64
}

func (r *recorder) layer() layerStats {
	r.mu.Lock()
	defer r.mu.Unlock()
	busy := make(map[string]time.Duration, len(r.busy))
	for k, v := range r.busy {
		busy[k] = v
	}
	return layerStats{busy: busy, handles: append(samples(nil), r.handles...),
		waits: append(samples(nil), r.waits...), sends: r.sends, bytes: r.bytes}
}

// selfTimes derives each span name's total and self time: a span's self
// time is its duration minus the part of its interval its children cover.
func selfTimes(spans []span) map[string][2]time.Duration {
	children := map[uint64][]span{}
	for _, s := range spans {
		if s.parent != 0 {
			children[s.parent] = append(children[s.parent], s)
		}
	}
	out := map[string][2]time.Duration{}
	for _, s := range spans {
		d := s.end - s.start
		covered := coveredBy(s, children[s.id])
		agg := out[s.name]
		agg[0] += d
		agg[1] += d - covered
		out[s.name] = agg
	}
	return out
}

// coveredBy measures how much of s's interval the union of kids covers.
func coveredBy(s span, kids []span) time.Duration {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]time.Duration, 0, len(kids))
	for _, k := range kids {
		a, b := max(k.start, s.start), min(k.end, s.end)
		if b > a {
			iv = append(iv, [2]time.Duration{a, b})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total time.Duration
	var curA, curB time.Duration
	for i, x := range iv {
		if i == 0 || x[0] > curB {
			total += curB - curA
			curA, curB = x[0], x[1]
			continue
		}
		curB = max(curB, x[1])
	}
	return total + curB - curA
}

// writeSpans writes every kept span, then the per-name total and self times,
// as tab-separated text to path.
func (r *recorder) writeSpans(path string) error {
	r.mu.Lock()
	spans := append([]span(nil), r.spans...)
	dropped := r.dropped
	r.mu.Unlock()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintf(w, "# spans kept %d, dropped past the cap %d\n", len(spans), dropped)
	fmt.Fprintln(w, "# id\tparent\tname\treq\tstart_us\tend_us")
	for _, s := range spans {
		fmt.Fprintf(w, "%d\t%d\t%s\t%s\t%d\t%d\n", s.id, s.parent, s.name, s.req,
			s.start.Microseconds(), s.end.Microseconds())
	}
	agg := selfTimes(spans)
	names := make([]string, 0, len(agg))
	for n := range agg {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintln(w, "# name\ttotal_ms\tself_ms")
	for _, n := range names {
		fmt.Fprintf(w, "# %s\t%.3f\t%.3f\n", n, ms(agg[n][0]), ms(agg[n][1]))
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
