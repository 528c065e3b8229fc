package peer

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"repro/internal/relalg"
	"repro/internal/storage"
	"repro/internal/wire"
)

// Acknowledgment-handshake tests: the source's confirmed frontiers must
// advance only on AnswerAck (contiguously, and the persisted one only on
// durability-gated acks), lag behind the in-flight marks while sends are
// being lost, and drive re-sends that close the lost-delta window.

// durableOpts simulates a durable dependent: the sync gate exists and
// succeeds, so its acknowledgments are durability-grade.
func durableOpts() Options {
	return Options{Delta: true, SyncForAck: func() error { return nil }}
}

// subState snapshots one subscription's frontiers under the peer mutex.
func subState(p *Peer, dependent, ruleID string) (marks, acked, ackedDurable storage.Marks, ok bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	sub, ok := p.subs[subKey(dependent, ruleID)]
	if !ok {
		return nil, nil, nil, false
	}
	return sub.marks.Clone(), sub.acked.Clone(), sub.ackedDurable.Clone(), true
}

func TestAckAdvancesConfirmedFrontiers(t *testing.T) {
	hs := newHarness(t, durableOpts())
	hs.h.StartUpdateWave()
	hs.quiesce(t)
	marks, acked, ackedDurable, ok := subState(hs.s, "H", "r")
	if !ok {
		t.Fatal("S holds no subscription for H")
	}
	if len(marks) == 0 || marks["s"] == 0 {
		t.Fatalf("in-flight marks not primed: %v", marks)
	}
	if !acked.Covers(marks) {
		t.Fatalf("after quiescence the receipt frontier must cover the shipped one: acked=%v marks=%v", acked, marks)
	}
	if !ackedDurable.Covers(marks) {
		t.Fatalf("durability-gated acks must advance the durable frontier too: ackedDurable=%v marks=%v", ackedDurable, marks)
	}
	// The handshake generated real ack traffic, counted like any protocol
	// message (quiescence detection depends on that).
	if got := hs.h.Counters().Snapshot().MsgsSent["answerAck"]; got == 0 {
		t.Fatal("H sent no answerAck")
	}
	if got := hs.s.Counters().Snapshot().MsgsReceived["answerAck"]; got == 0 {
		t.Fatal("S received no answerAck")
	}
}

func TestNonDurableAckNotPersisted(t *testing.T) {
	// No sync gate: acks confirm receipt only. The receipt frontier serves
	// live retransmission; the persisted (durable) frontier must stay put —
	// a dependent that never synced may lose everything it acknowledged.
	hs := newHarness(t, Options{Delta: true})
	hs.h.StartUpdateWave()
	hs.quiesce(t)
	marks, acked, ackedDurable, _ := subState(hs.s, "H", "r")
	if !acked.Covers(marks) {
		t.Fatalf("receipt frontier must still advance: acked=%v marks=%v", acked, marks)
	}
	if ackedDurable["s"] != 0 {
		t.Fatalf("ungated acks advanced the durable frontier: %v", ackedDurable)
	}
	for _, ss := range hs.s.DurableSubs() {
		if ss.Dependent == "H" && ss.RuleID == "r" && ss.Marks["s"] != 0 {
			t.Fatalf("durable subs persist an unconfirmed frontier: %v", ss.Marks)
		}
	}
	// A clean close promotes receipt to durability grade (the network-wide
	// seal is what makes received data durable).
	hs.s.SealFrontiers()
	for _, ss := range hs.s.DurableSubs() {
		if ss.Dependent == "H" && ss.RuleID == "r" && ss.Marks["s"] != acked["s"] {
			t.Fatalf("seal promotion: durable subs carry %v, want %v", ss.Marks, acked)
		}
	}
}

func TestStaleSubIDAckIgnored(t *testing.T) {
	hs := newHarness(t, durableOpts())
	hs.h.StartUpdateWave()
	hs.quiesce(t)
	_, before, _, _ := subState(hs.s, "H", "r")
	// An ack echoing a defunct subscription instance must not move the
	// frontier: its seqs confirm answers to a different question.
	hs.s.Handle(wire.Envelope{From: "H", To: "S", Msg: wire.AnswerAck{
		RuleID: "r", SubID: 999999, Durable: true, Seqs: map[string]uint64{"s": 1 << 30},
	}})
	_, after, _, _ := subState(hs.s, "H", "r")
	if after["s"] != before["s"] {
		t.Fatalf("stale ack advanced the frontier: %v -> %v", before, after)
	}
}

func TestGappedAckIgnored(t *testing.T) {
	// The contiguity gate: an ack whose Base lies beyond the confirmed
	// frontier is the shadow of a dropped earlier answer (outbox overflow,
	// write error) — extending past it would bury the dropped delta below
	// the frontier forever.
	hs := newHarness(t, durableOpts())
	hs.h.StartUpdateWave()
	hs.quiesce(t)
	hs.s.mu.Lock()
	subID := hs.s.subs[subKey("H", "r")].id
	hs.s.mu.Unlock()
	_, before, _, _ := subState(hs.s, "H", "r")
	gapBase := before["s"] + 5
	hs.s.Handle(wire.Envelope{From: "H", To: "S", Msg: wire.AnswerAck{
		RuleID: "r", SubID: subID, Durable: true,
		Base: map[string]uint64{"s": gapBase},
		Seqs: map[string]uint64{"s": gapBase + 3},
	}})
	_, after, afterDur, _ := subState(hs.s, "H", "r")
	if after["s"] != before["s"] || afterDur["s"] != before["s"] {
		t.Fatalf("gapped ack extended the frontier: %v -> acked=%v durable=%v", before, after, afterDur)
	}
	// A contiguous ack (base at the frontier) extends normally.
	hs.s.Handle(wire.Envelope{From: "H", To: "S", Msg: wire.AnswerAck{
		RuleID: "r", SubID: subID, Durable: true,
		Base: map[string]uint64{"s": before["s"]},
		Seqs: map[string]uint64{"s": before["s"] + 2},
	}})
	_, after, _, _ = subState(hs.s, "H", "r")
	if after["s"] != before["s"]+2 {
		t.Fatalf("contiguous ack did not extend the frontier: %v", after)
	}
}

func TestLostDeltaLeavesAckedBehind(t *testing.T) {
	hs := newHarness(t, durableOpts())
	hs.h.StartUpdateWave()
	hs.quiesce(t)
	// Cut the link and push a fresh delta: the evaluation advances the
	// in-flight marks, the partition eats the answer, the ack never comes.
	hs.tr.Partition("S", "H")
	if _, err := hs.s.InsertLocal("s", relalg.Tuple{relalg.S("c"), relalg.S("d")}); err != nil {
		t.Fatal(err)
	}
	hs.quiesce(t)
	marks, acked, _, _ := subState(hs.s, "H", "r")
	if marks["s"] <= acked["s"] {
		t.Fatalf("lost delta should leave acked behind: marks=%v acked=%v", marks, acked)
	}
	// The durable form must seal the confirmed frontier — persisting the
	// in-flight one is exactly the bug the handshake fixes.
	for _, ss := range hs.s.DurableSubs() {
		if ss.Dependent == "H" && ss.RuleID == "r" && ss.Marks["s"] != acked["s"] {
			t.Fatalf("durable subs carry %v, want confirmed %v", ss.Marks, acked)
		}
	}
}

func TestEpochBumpReShipsUnacked(t *testing.T) {
	hs := newHarness(t, durableOpts())
	hs.h.StartUpdateWave()
	hs.quiesce(t)
	hs.tr.Partition("S", "H")
	if _, err := hs.s.InsertLocal("s", relalg.Tuple{relalg.S("c"), relalg.S("d")}); err != nil {
		t.Fatal(err)
	}
	hs.quiesce(t)
	if got := hs.h.DB().Count("h"); got != 1 {
		t.Fatalf("partitioned H should still hold 1 tuple, has %d", got)
	}
	// Heal and run a fresh epoch: the re-query resumes from the confirmed
	// frontier, so the swallowed delta ships now — before the handshake the
	// carried in-flight marks skipped it forever.
	hs.tr.Heal("S", "H")
	hs.h.StartUpdateWave()
	hs.quiesce(t)
	if got := hs.h.DB().Count("h"); got != 2 {
		t.Fatalf("h = %d after the healing epoch, want 2 (lost delta re-shipped)", got)
	}
	marks, acked, _, _ := subState(hs.s, "H", "r")
	if !acked.Covers(marks) {
		t.Fatalf("frontier did not reconverge: marks=%v acked=%v", marks, acked)
	}
}

func TestResendLoopReShipsUnacked(t *testing.T) {
	opts := durableOpts()
	opts.ResendEvery = 25 * time.Millisecond
	hs := newHarness(t, opts)
	defer hs.s.CloseWatchers() // stops the resend loop
	defer hs.h.CloseWatchers()
	hs.h.StartUpdateWave()
	hs.quiesce(t)
	hs.tr.Partition("S", "H")
	if _, err := hs.s.InsertLocal("s", relalg.Tuple{relalg.S("c"), relalg.S("d")}); err != nil {
		t.Fatal(err)
	}
	hs.quiesce(t)
	hs.tr.Heal("S", "H")
	// No epoch bump, no probe: the timeout-driven resend alone must notice
	// the stalled frontier and re-ship from the receipt frontier.
	deadline := time.Now().Add(5 * time.Second)
	for hs.h.DB().Count("h") != 2 {
		if time.Now().After(deadline) {
			t.Fatalf("resend loop never re-shipped: h = %d", hs.h.DB().Count("h"))
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestResendUnackedToTargetsOneDependent(t *testing.T) {
	hs := newHarness(t, durableOpts())
	hs.h.StartUpdateWave()
	hs.quiesce(t)
	hs.tr.Partition("S", "H")
	if _, err := hs.s.InsertLocal("s", relalg.Tuple{relalg.S("c"), relalg.S("d")}); err != nil {
		t.Fatal(err)
	}
	hs.quiesce(t)
	hs.tr.Heal("S", "H")
	// The cluster layer's rejoin trigger: re-ship everything H never
	// durably confirmed.
	hs.s.ResendUnackedTo("H")
	hs.quiesce(t)
	if got := hs.h.DB().Count("h"); got != 2 {
		t.Fatalf("h = %d after ResendUnackedTo, want 2", got)
	}
	// A second call finds the durable frontier converged and sends nothing.
	before := hs.s.Counters().Snapshot().TotalSent()
	hs.s.ResendUnackedTo("H")
	hs.quiesce(t)
	if after := hs.s.Counters().Snapshot().TotalSent(); after != before {
		t.Fatalf("converged frontier still re-sent: %d -> %d messages", before, after)
	}
}

func TestSendErrorsCounted(t *testing.T) {
	hs := newHarness(t, Options{Delta: true})
	before := hs.s.Counters().Snapshot().SendErrors
	hs.s.send("NO-SUCH-PEER", wire.StatsRequest{})
	if got := hs.s.Counters().Snapshot().SendErrors; got != before+1 {
		t.Fatalf("send error not counted: %d -> %d", before, got)
	}
}

// randomAck draws an acknowledgment over relations r and s: each relation
// is covered or not, its base is sometimes left out (it then reads as 0),
// and ranges may be empty, contiguous with earlier ones, gapped or stale.
func randomAck(rng *rand.Rand, to string, subID uint64) pendingAck {
	m := wire.AnswerAck{RuleID: "r", SubID: subID, Seqs: map[string]uint64{}}
	for _, rel := range []string{"r", "s"} {
		if rng.Intn(4) == 0 {
			continue
		}
		base := uint64(rng.Intn(8))
		m.Seqs[rel] = uint64(rng.Intn(10)) // may land at or below base: an empty range
		if base > 0 || rng.Intn(2) == 0 {
			if m.Base == nil {
				m.Base = map[string]uint64{}
			}
			m.Base[rel] = base
		}
	}
	return pendingAck{to: to, msg: m}
}

// applyAcks runs acks through the receiving side's frontier rule, one
// frontier per subscription, the way handleAnswerAck applies them in
// arrival order.
func applyAcks(start map[string]storage.Marks, acks []pendingAck) map[string]storage.Marks {
	out := map[string]storage.Marks{}
	for k, f := range start {
		out[k] = f.Clone()
	}
	for _, a := range acks {
		k := fmt.Sprintf("%s/%d", a.to, a.msg.SubID)
		if out[k] == nil {
			out[k] = storage.Marks{}
		}
		extendFrontier(out[k], a.msg.Base, a.msg.Seqs)
	}
	return out
}

// TestMergeAcksMatchesSequentialApplication is mergeAcks' defining
// property: from any starting frontiers, the merged acks advance every
// subscription's frontier exactly as far as the constituent acks applied
// in order — never past a gap, never short of a contiguous run.
func TestMergeAcksMatchesSequentialApplication(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 5000; trial++ {
		var in []pendingAck
		for n := 2 + rng.Intn(5); n > 0; n-- {
			in = append(in, randomAck(rng, []string{"A", "B"}[rng.Intn(2)], uint64(1+rng.Intn(2))))
		}
		start := map[string]storage.Marks{}
		for _, k := range []string{"A/1", "A/2", "B/1", "B/2"} {
			start[k] = storage.Marks{"r": uint64(rng.Intn(8)), "s": uint64(rng.Intn(8))}
		}
		before := fmt.Sprint(in)
		merged := mergeAcks(in)
		if got := fmt.Sprint(in); got != before {
			t.Fatalf("trial %d: mergeAcks mutated its input:\n%s\n%s", trial, before, got)
		}
		want, got := applyAcks(start, in), applyAcks(start, merged)
		if fmt.Sprint(want) != fmt.Sprint(got) {
			t.Fatalf("trial %d: from %v\nacks   %v\nmerged %v\nsequential frontiers %v\nmerged frontiers     %v",
				trial, start, in, merged, want, got)
		}
	}
}

// TestMergeAcksFoldsContiguousRanges pins the case the merge exists for —
// one subscription's consecutive answers earn one ack — including the first
// answer's range, whose base 0 is implied by its absence, and a relation
// only the later ack covers.
func TestMergeAcksFoldsContiguousRanges(t *testing.T) {
	in := []pendingAck{
		{to: "H", msg: wire.AnswerAck{RuleID: "r", SubID: 1, Seqs: map[string]uint64{"a": 1}}},
		{to: "H", msg: wire.AnswerAck{RuleID: "r", SubID: 1, Base: map[string]uint64{"a": 1}, Seqs: map[string]uint64{"a": 3}}},
		{to: "H", msg: wire.AnswerAck{RuleID: "r", SubID: 1, Base: map[string]uint64{"a": 3, "b": 2}, Seqs: map[string]uint64{"a": 4, "b": 5}}},
	}
	out := mergeAcks(in)
	if len(out) != 1 {
		t.Fatalf("contiguous acks merged into %d acks, want 1: %v", len(out), out)
	}
	m := out[0].msg
	if m.Base["a"] != 0 || m.Seqs["a"] != 4 || m.Base["b"] != 2 || m.Seqs["b"] != 5 {
		t.Fatalf("merged range a=(%d,%d] b=(%d,%d], want a=(0,4] b=(2,5]", m.Base["a"], m.Seqs["a"], m.Base["b"], m.Seqs["b"])
	}
	f := storage.Marks{"b": 2}
	if !extendFrontier(f, m.Base, m.Seqs) || f["a"] != 4 || f["b"] != 5 {
		t.Fatalf("merged ack left the frontier at %v, want a=4 b=5", f)
	}
	// A gap keeps the later ack separate, so the frontier stops before it.
	gapped := append(in[:1:1], pendingAck{to: "H", msg: wire.AnswerAck{RuleID: "r", SubID: 1, Base: map[string]uint64{"a": 2}, Seqs: map[string]uint64{"a": 3}}})
	if out := mergeAcks(gapped); len(out) != 2 {
		t.Fatalf("gapped acks merged into %d acks, want 2: %v", len(out), out)
	}
}
