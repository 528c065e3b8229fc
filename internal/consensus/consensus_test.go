package consensus

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/wire"
)

// fakeNet is an in-memory message fabric with per-pair partitions and random
// loss — the failure modes Paxos must absorb. Delivery is asynchronous (one
// goroutine per frame), like the real TCP outbox.
type fakeNet struct {
	mu      sync.Mutex
	nodes   map[string]*Node
	cut     map[[2]string]bool // unordered pair → partitioned
	dropPct int                // percent of frames lost at random
	rng     *rand.Rand
	wg      sync.WaitGroup
}

func newFakeNet() *fakeNet {
	return &fakeNet{nodes: map[string]*Node{}, cut: map[[2]string]bool{}, rng: rand.New(rand.NewSource(1))}
}

func pairKey(a, b string) [2]string {
	if a > b {
		a, b = b, a
	}
	return [2]string{a, b}
}

func (f *fakeNet) sender(from string) Sender {
	return func(to string, msg wire.Message) error {
		f.mu.Lock()
		blocked := f.cut[pairKey(from, to)]
		dropped := f.dropPct > 0 && f.rng.Intn(100) < f.dropPct
		dst := f.nodes[to]
		f.mu.Unlock()
		if blocked || dropped || dst == nil {
			return nil // silent loss, like an async outbox
		}
		f.wg.Add(1)
		go func() {
			defer f.wg.Done()
			dst.Handle(wire.Envelope{From: from, To: to, Msg: msg})
		}()
		return nil
	}
}

// partition cuts every pair straddling the two groups.
func (f *fakeNet) partition(a, b []string) {
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, x := range a {
		for _, y := range b {
			f.cut[pairKey(x, y)] = true
		}
	}
}

func (f *fakeNet) heal() {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.cut = map[[2]string]bool{}
}

// applyLog records the applied sequence of one member.
type applyLog struct {
	mu      sync.Mutex
	entries []logEntry
}

func (l *applyLog) apply(i uint64, c wire.Command) {
	l.mu.Lock()
	l.entries = append(l.entries, logEntry{Instance: i, Cmd: c})
	l.mu.Unlock()
}

func (l *applyLog) snapshot() []logEntry {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]logEntry(nil), l.entries...)
}

// stateBytes/installState wire an applyLog as a state-transfer application:
// the "state" is simply the applied sequence so far.
func (l *applyLog) stateBytes() []byte {
	l.mu.Lock()
	defer l.mu.Unlock()
	var buf bytes.Buffer
	_ = gob.NewEncoder(&buf).Encode(l.entries)
	return buf.Bytes()
}

func (l *applyLog) installState(_ uint64, data []byte) {
	var entries []logEntry
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&entries); err != nil {
		return
	}
	l.mu.Lock()
	l.entries = entries
	l.mu.Unlock()
}

func fastOpts() Options {
	return Options{Retry: 10 * time.Millisecond, SyncEvery: 25 * time.Millisecond, GapFill: 40 * time.Millisecond, KeepWindow: 1 << 20}
}

// startCluster builds and starts n members A, B, C, ... on one fabric.
func startCluster(t *testing.T, f *fakeNet, names []string, opts Options) (map[string]*Node, map[string]*applyLog) {
	t.Helper()
	nodes := map[string]*Node{}
	logs := map[string]*applyLog{}
	for _, name := range names {
		al := &applyLog{}
		n, err := New(name, names, f.sender(name), al.apply, opts)
		if err != nil {
			t.Fatal(err)
		}
		nodes[name] = n
		logs[name] = al
		f.mu.Lock()
		f.nodes[name] = n
		f.mu.Unlock()
	}
	for _, n := range nodes {
		n.Start()
	}
	t.Cleanup(func() {
		for _, n := range nodes {
			n.Close()
		}
		f.wg.Wait()
	})
	return nodes, logs
}

func waitFor(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timeout waiting for %s", what)
}

func submit(t *testing.T, n *Node, kind, text string) uint64 {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	at, err := n.Submit(ctx, wire.Command{Kind: kind, Text: text})
	if err != nil {
		t.Fatalf("submit %s/%s on %s: %v", kind, text, n.Self(), err)
	}
	return at
}

// sameOrder asserts every member applied the identical command sequence.
func sameOrder(t *testing.T, logs map[string]*applyLog, want int) {
	t.Helper()
	var ref []logEntry
	var refName string
	for name, l := range logs {
		got := l.snapshot()
		if len(got) != want {
			t.Fatalf("%s applied %d entries, want %d", name, len(got), want)
		}
		if ref == nil {
			ref, refName = got, name
			continue
		}
		for i := range got {
			if got[i].Instance != ref[i].Instance || got[i].Cmd != ref[i].Cmd {
				t.Fatalf("divergence at %d: %s=%+v %s=%+v", i, refName, ref[i], name, got[i])
			}
		}
	}
}

func TestSingleProposerOrdersAll(t *testing.T) {
	f := newFakeNet()
	names := []string{"A", "B", "C"}
	nodes, logs := startCluster(t, f, names, fastOpts())
	for i := 0; i < 8; i++ {
		submit(t, nodes["A"], "noop", fmt.Sprint(i))
	}
	waitFor(t, 5*time.Second, "all applied", func() bool {
		for _, l := range logs {
			if len(l.snapshot()) != 8 {
				return false
			}
		}
		return true
	})
	sameOrder(t, logs, 8)
	for i, e := range logs["B"].snapshot() {
		if e.Cmd.Text != fmt.Sprint(i) {
			t.Fatalf("entry %d out of submission order: %+v", i, e)
		}
	}
}

func TestContendingProposersNeverDiverge(t *testing.T) {
	f := newFakeNet()
	names := []string{"A", "B", "C"}
	nodes, logs := startCluster(t, f, names, fastOpts())
	const per = 5
	var wg sync.WaitGroup
	for _, name := range names {
		wg.Add(1)
		go func(n *Node) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				submit(t, n, "noop", fmt.Sprintf("%s-%d", n.Self(), i))
			}
		}(nodes[name])
	}
	wg.Wait()
	want := per * len(names)
	waitFor(t, 10*time.Second, "all applied", func() bool {
		for _, l := range logs {
			if len(l.snapshot()) < want {
				return false
			}
		}
		return true
	})
	total := len(logs["A"].snapshot())
	sameOrder(t, logs, total)
	// Every submission decided exactly once (no duplicates, no losses).
	seen := map[string]int{}
	for _, e := range logs["A"].snapshot() {
		seen[e.Cmd.Origin+"#"+fmt.Sprint(e.Cmd.Seq)]++
	}
	if len(seen) != total {
		t.Fatalf("duplicate decisions: %d unique of %d", len(seen), total)
	}
}

// TestConcurrentLocalProposersKeepDistinctBallots hammers ONE node with
// parallel Submits. Before ballots carried a per-node epoch, two concurrent
// local rounds could pick the same (instance, ballot) key — one's cleanup
// deleted the other's round state mid-flight (a nil-dereference panic under
// the node mutex), and worse, the two rounds could ship different values
// under a single ballot. All submissions must decide, exactly once, in the
// same order everywhere.
func TestConcurrentLocalProposersKeepDistinctBallots(t *testing.T) {
	f := newFakeNet()
	names := []string{"A", "B", "C"}
	nodes, logs := startCluster(t, f, names, fastOpts())
	const par = 8
	var wg sync.WaitGroup
	for i := 0; i < par; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			submit(t, nodes["A"], "noop", fmt.Sprint(i))
		}(i)
	}
	wg.Wait()
	waitFor(t, 10*time.Second, "all applied", func() bool {
		for _, l := range logs {
			if len(l.snapshot()) < par {
				return false
			}
		}
		return true
	})
	total := len(logs["A"].snapshot())
	sameOrder(t, logs, total)
	seen := map[string]int{}
	for _, e := range logs["A"].snapshot() {
		seen[e.Cmd.Origin+"#"+fmt.Sprint(e.Cmd.Seq)]++
	}
	if len(seen) != total {
		t.Fatalf("duplicate decisions: %d unique of %d", len(seen), total)
	}
}

func TestMessageLossStillDecides(t *testing.T) {
	f := newFakeNet()
	f.dropPct = 20
	names := []string{"A", "B", "C"}
	nodes, logs := startCluster(t, f, names, fastOpts())
	for i := 0; i < 6; i++ {
		submit(t, nodes[names[i%3]], "noop", fmt.Sprint(i))
	}
	waitFor(t, 15*time.Second, "all applied despite loss", func() bool {
		for _, l := range logs {
			if len(l.snapshot()) < 6 {
				return false
			}
		}
		return true
	})
	sameOrder(t, logs, len(logs["A"].snapshot()))
}

func TestMinorityMakesNoProgress(t *testing.T) {
	f := newFakeNet()
	names := []string{"A", "B", "C", "D", "E"}
	nodes, logs := startCluster(t, f, names, fastOpts())
	submit(t, nodes["A"], "noop", "warmup")

	f.partition([]string{"A", "B"}, []string{"C", "D", "E"})

	// The minority proposer must block until its context expires.
	ctx, cancel := context.WithTimeout(context.Background(), 300*time.Millisecond)
	_, err := nodes["A"].Submit(ctx, wire.Command{Kind: "noop", Text: "minority"})
	cancel()
	if err == nil {
		t.Fatal("minority proposer decided without a quorum")
	}
	minorityApplied := len(logs["A"].snapshot())

	// The majority side keeps deciding.
	submit(t, nodes["C"], "noop", "majority-1")
	submit(t, nodes["D"], "noop", "majority-2")
	waitFor(t, 5*time.Second, "majority applied", func() bool {
		return len(logs["E"].snapshot()) >= 3
	})
	if got := len(logs["A"].snapshot()); got != minorityApplied {
		t.Fatalf("minority advanced during partition: %d -> %d", minorityApplied, got)
	}

	// Healed: the minority catches up and a fresh submit from it decides.
	f.heal()
	submit(t, nodes["A"], "noop", "healed")
	waitFor(t, 5*time.Second, "all converged", func() bool {
		n := len(logs["C"].snapshot())
		for _, l := range logs {
			if len(l.snapshot()) != n {
				return false
			}
		}
		return n >= 4
	})
	sameOrder(t, logs, len(logs["A"].snapshot()))
}

func TestCatchUpAfterSilence(t *testing.T) {
	f := newFakeNet()
	names := []string{"A", "B", "C"}
	nodes, logs := startCluster(t, f, names, fastOpts())
	f.partition([]string{"C"}, []string{"A", "B"})
	for i := 0; i < 5; i++ {
		submit(t, nodes["A"], "noop", fmt.Sprint(i))
	}
	if n := len(logs["C"].snapshot()); n != 0 {
		t.Fatalf("isolated member applied %d entries", n)
	}
	f.heal()
	// No further proposals: the catch-up ticker alone must close the gap.
	waitFor(t, 5*time.Second, "C caught up", func() bool {
		return len(logs["C"].snapshot()) == 5
	})
	sameOrder(t, logs, 5)
}

// TestGapFill injects a decided successor with an undecided predecessor — the
// state a proposer's death between Accept and Learn leaves behind — and
// expects a no-op fill to unblock the applier.
func TestGapFill(t *testing.T) {
	f := newFakeNet()
	names := []string{"A", "B", "C"}
	nodes, logs := startCluster(t, f, names, fastOpts())
	for _, n := range nodes {
		n.Handle(wire.Envelope{From: "A", To: n.Self(),
			Msg: wire.Learn{Instance: 2, Val: wire.Command{Kind: "member", Origin: "A", Seq: 99, Node: "Z"}}})
	}
	waitFor(t, 5*time.Second, "gap filled and both applied", func() bool {
		for _, l := range logs {
			if len(l.snapshot()) != 2 {
				return false
			}
		}
		return true
	})
	sameOrder(t, logs, 2)
	first := logs["A"].snapshot()[0]
	if first.Instance != 1 || first.Cmd.Kind != "noop" {
		t.Fatalf("gap not filled with noop: %+v", first)
	}
	if m := nodes["A"].Metrics(); m.NoopFills == 0 && nodes["B"].Metrics().NoopFills == 0 && nodes["C"].Metrics().NoopFills == 0 {
		t.Errorf("no member counted a noop fill: %+v", m)
	}
}

func TestGCBoundsInstanceState(t *testing.T) {
	opts := fastOpts()
	opts.KeepWindow = 8
	f := newFakeNet()
	names := []string{"A", "B", "C"}
	nodes, logs := startCluster(t, f, names, opts)
	const total = 40
	for i := 0; i < total; i++ {
		submit(t, nodes[names[i%3]], "noop", fmt.Sprint(i))
	}
	waitFor(t, 10*time.Second, "all applied", func() bool {
		for _, l := range logs {
			if len(l.snapshot()) < total {
				return false
			}
		}
		return true
	})
	// Done frontiers ride on the periodic catch-up; give them a few ticks.
	waitFor(t, 5*time.Second, "GC floor advanced", func() bool {
		for _, n := range nodes {
			if n.Metrics().Floor == 0 {
				return false
			}
		}
		return true
	})
	for name, n := range nodes {
		m := n.Metrics()
		n.mu.Lock()
		kept := len(n.insts)
		n.mu.Unlock()
		if uint64(kept) > m.Applied-m.Floor+4 {
			t.Errorf("%s retains %d instances above floor %d (applied %d)", name, kept, m.Floor, m.Applied)
		}
	}
}

// TestRestartReplaysControlLog runs each member with its own control log,
// kills one (Close + detach), decides more entries, restarts it from its log
// and expects offline replay + network catch-up to converge it.
func TestRestartReplaysControlLog(t *testing.T) {
	dir := t.TempDir()
	names := []string{"A", "B", "C"}
	f := newFakeNet()
	nodes := map[string]*Node{}
	logs := map[string]*applyLog{}
	mk := func(name string) {
		al := &applyLog{}
		opts := fastOpts()
		opts.LogPath = filepath.Join(dir, name+".control.log")
		n, err := New(name, names, f.sender(name), al.apply, opts)
		if err != nil {
			t.Fatal(err)
		}
		nodes[name], logs[name] = n, al
		f.mu.Lock()
		f.nodes[name] = n
		f.mu.Unlock()
		n.Start()
	}
	for _, name := range names {
		mk(name)
	}
	defer func() {
		for _, n := range nodes {
			n.Close()
		}
		f.wg.Wait()
	}()

	for i := 0; i < 6; i++ {
		submit(t, nodes["A"], "noop", fmt.Sprint(i))
	}
	waitFor(t, 5*time.Second, "all applied", func() bool {
		for _, l := range logs {
			if len(l.snapshot()) != 6 {
				return false
			}
		}
		return true
	})

	// "Crash" C: close it and detach it from the fabric.
	nodes["C"].Close()
	f.mu.Lock()
	delete(f.nodes, "C")
	f.mu.Unlock()
	preCrash := logs["C"].snapshot()

	submit(t, nodes["A"], "noop", "while-down-1")
	submit(t, nodes["B"], "noop", "while-down-2")

	// Restart C from its control log (mk installs a fresh applyLog): New
	// replays the persisted prefix synchronously, before any network frame.
	mk("C")
	replayed := logs["C"].snapshot()
	if len(replayed) != len(preCrash) {
		t.Fatalf("replay produced %d entries, want %d", len(replayed), len(preCrash))
	}
	for i, e := range preCrash {
		if replayed[i].Instance != e.Instance || replayed[i].Cmd != e.Cmd {
			t.Fatalf("replay diverged at %d: %+v vs %+v", i, replayed[i], e)
		}
	}
	waitFor(t, 5*time.Second, "C caught up past crash window", func() bool {
		return len(logs["C"].snapshot()) == len(preCrash)+2
	})
	if m := nodes["C"].Metrics(); m.Applied != 8 {
		t.Fatalf("restarted member applied=%d, want 8", m.Applied)
	}
}

// TestRestartHonoursDurableVotes pins the acceptor-durability rule: a vote
// (a promise, or an accepted ballot and value) is fsynced before the reply
// leaves, so a crash-restart cannot forget it — a restarted member still
// rejects lower ballots and surfaces its accepted value to higher ones.
// Forgetting either would let two majorities accept different values at the
// same instance (broken quorum intersection).
func TestRestartHonoursDurableVotes(t *testing.T) {
	dir := t.TempDir()
	var mu sync.Mutex
	var sent []wire.Message
	send := func(to string, msg wire.Message) error {
		mu.Lock()
		sent = append(sent, msg)
		mu.Unlock()
		return nil
	}
	last := func() wire.Message {
		mu.Lock()
		defer mu.Unlock()
		if len(sent) == 0 {
			t.Fatal("no reply captured")
		}
		return sent[len(sent)-1]
	}
	opts := fastOpts()
	opts.LogPath = filepath.Join(dir, "B.control.log")
	mk := func() *Node {
		n, err := New("B", []string{"A", "B", "C"}, send, func(uint64, wire.Command) {}, opts)
		if err != nil {
			t.Fatal(err)
		}
		return n
	}

	val := wire.Command{Kind: "member", Origin: "A", Seq: 7, Node: "X"}
	n := mk()
	n.Handle(wire.Envelope{From: "A", To: "B", Msg: wire.Prepare{Instance: 1, Ballot: 5}})
	if p, ok := last().(wire.Promise); !ok || !p.OK {
		t.Fatalf("pre-crash promise: %+v", last())
	}
	n.Handle(wire.Envelope{From: "A", To: "B", Msg: wire.Accept{Instance: 1, Ballot: 5, Val: val}})
	if a, ok := last().(wire.Accepted); !ok || !a.OK {
		t.Fatalf("pre-crash accept: %+v", last())
	}
	n.Close() // crash stand-in: only what reached the acceptor log survives

	n = mk()
	defer n.Close()
	// Lower ballots must still bounce off the restored promise.
	n.Handle(wire.Envelope{From: "C", To: "B", Msg: wire.Prepare{Instance: 1, Ballot: 3}})
	if p, ok := last().(wire.Promise); !ok || p.OK || p.Promised != 5 {
		t.Fatalf("restarted acceptor re-promised below its durable promise: %+v", last())
	}
	n.Handle(wire.Envelope{From: "C", To: "B", Msg: wire.Accept{Instance: 1, Ballot: 3, Val: wire.Command{Kind: "noop"}}})
	if a, ok := last().(wire.Accepted); !ok || a.OK || a.Promised != 5 {
		t.Fatalf("restarted acceptor re-accepted below its durable promise: %+v", last())
	}
	// A higher ballot's Prepare must surface the durable accepted value.
	n.Handle(wire.Envelope{From: "C", To: "B", Msg: wire.Prepare{Instance: 1, Ballot: 9}})
	if p, ok := last().(wire.Promise); !ok || !p.OK || !p.HasVal || p.AccBallot != 5 || p.Val != val {
		t.Fatalf("restarted acceptor lost its durable accepted value: %+v", last())
	}
}

// vote is the durable part of one acceptor instance.
type vote struct {
	promised, accBallot uint64
	accVal              wire.Command
}

func nodeVotes(n *Node) map[uint64]vote {
	n.mu.Lock()
	defer n.mu.Unlock()
	out := map[uint64]vote{}
	for i, in := range n.insts {
		out[i] = vote{in.promised, in.accBallot, in.accVal}
	}
	return out
}

// TestAcceptorLogCorruptTailReplaysPrefix damages the last vote in the
// acceptor log — cut at every byte offset, and each of its bits flipped in
// turn — and restarts the member: it must restore exactly the votes before
// the damaged one, never a different vote. The frame checksum is what makes
// this hold; a decodable-but-wrong entry would hand a restarted acceptor a
// promise or an accepted value it never made.
func TestAcceptorLogCorruptTailReplaysPrefix(t *testing.T) {
	opts := fastOpts()
	opts.LogPath = filepath.Join(t.TempDir(), "B.control.log")
	send := func(string, wire.Message) error { return nil }
	mk := func() *Node {
		n, err := New("B", []string{"A", "B", "C"}, send, func(uint64, wire.Command) {}, opts)
		if err != nil {
			t.Fatal(err)
		}
		return n
	}
	n := mk()
	val1 := wire.Command{Kind: "member", Origin: "A", Seq: 7, Node: "X"}
	val2 := wire.Command{Kind: "addRule", Origin: "C", Seq: 17, Text: "r: A:a(X,Y) -> B:b(X,Y)"}
	for _, m := range []wire.Message{
		wire.Prepare{Instance: 1, Ballot: 5},
		wire.Accept{Instance: 1, Ballot: 5, Val: val1},
		wire.Prepare{Instance: 17, Ballot: 7},
	} {
		n.Handle(wire.Envelope{From: "A", To: "B", Msg: m})
	}
	prefix := nodeVotes(n)
	n.Handle(wire.Envelope{From: "C", To: "B", Msg: wire.Accept{Instance: 17, Ballot: 7, Val: val2}})
	full := nodeVotes(n)
	n.Close()

	accPath := opts.LogPath + ".acc"
	orig, err := os.ReadFile(accPath)
	if err != nil {
		t.Fatal(err)
	}
	last := len(accMagic) // offset of the last frame
	for off := last; off < len(orig); off += 8 + int(binary.LittleEndian.Uint32(orig[off:])) {
		last = off
	}
	check := func(label string, data []byte, want map[uint64]vote) {
		t.Helper()
		if err := os.WriteFile(accPath, data, 0o644); err != nil {
			t.Fatal(err)
		}
		n := mk()
		got := nodeVotes(n)
		n.Close()
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: restored votes %+v, want %+v", label, got, want)
		}
	}
	check("intact log", orig, full)
	for cut := last; cut < len(orig); cut++ {
		check(fmt.Sprintf("cut at byte %d of %d", cut, len(orig)), orig[:cut], prefix)
	}
	for bit := last * 8; bit < len(orig)*8; bit++ {
		data := append([]byte(nil), orig...)
		data[bit/8] ^= 1 << (bit % 8)
		check(fmt.Sprintf("bit %d flipped", bit), data, prefix)
	}
}

// TestRefusesForeignLogFile: a non-empty applied or acceptor log without
// this format's header — here a vote in the older checksum-less layout, a
// bare length prefix and a gob blob — makes New fail with an error naming
// the file and leaves the file as it was, instead of reading it as torn at
// byte 0 and truncating durable votes away.
func TestRefusesForeignLogFile(t *testing.T) {
	var blob bytes.Buffer
	if err := gob.NewEncoder(&blob).Encode(accEntry{Instance: 3, Promised: 9}); err != nil {
		t.Fatal(err)
	}
	data := binary.LittleEndian.AppendUint32(nil, uint32(blob.Len()))
	data = append(data, blob.Bytes()...)
	for _, suffix := range []string{"", ".acc"} {
		opts := fastOpts()
		opts.LogPath = filepath.Join(t.TempDir(), "B.control.log")
		path := opts.LogPath + suffix
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		n, err := New("B", []string{"A", "B", "C"}, func(string, wire.Message) error { return nil },
			func(uint64, wire.Command) {}, opts)
		if err == nil {
			n.Close()
			t.Fatalf("%s: New accepted a foreign log", path)
		}
		if !strings.Contains(err.Error(), path) {
			t.Errorf("error %q does not name %s", err, path)
		}
		if b, _ := os.ReadFile(path); !bytes.Equal(b, data) {
			t.Errorf("%s: refused log was modified", path)
		}
	}
}

// TestLostDiskStateTransferCatchUp rejoins a member whose disk is gone after
// its needed prefix was GC'd at every peer: no Learn can serve instances
// below the floor, so only the Snapshot/Restore state transfer can catch it
// up — and its recovered done-frontier must let GC resume cluster-wide.
func TestLostDiskStateTransferCatchUp(t *testing.T) {
	dir := t.TempDir()
	names := []string{"A", "B", "C"}
	f := newFakeNet()
	nodes := map[string]*Node{}
	logs := map[string]*applyLog{}
	mk := func(name string) {
		al := &applyLog{}
		opts := fastOpts()
		opts.KeepWindow = 4
		opts.LogPath = filepath.Join(dir, name+".control.log")
		opts.Snapshot = al.stateBytes
		opts.Restore = al.installState
		n, err := New(name, names, f.sender(name), al.apply, opts)
		if err != nil {
			t.Fatal(err)
		}
		nodes[name], logs[name] = n, al
		f.mu.Lock()
		f.nodes[name] = n
		f.mu.Unlock()
		n.Start()
	}
	for _, name := range names {
		mk(name)
	}
	defer func() {
		for _, n := range nodes {
			n.Close()
		}
		f.wg.Wait()
	}()

	const total = 30
	for i := 0; i < total; i++ {
		submit(t, nodes[names[i%3]], "noop", fmt.Sprint(i))
	}
	waitFor(t, 10*time.Second, "all applied", func() bool {
		for _, l := range logs {
			if len(l.snapshot()) < total {
				return false
			}
		}
		return true
	})
	waitFor(t, 5*time.Second, "GC floor advanced", func() bool {
		return nodes["A"].Metrics().Floor > 0 && nodes["B"].Metrics().Floor > 0
	})

	// Crash C and destroy its disk: both log files gone, fresh applyLog.
	nodes["C"].Close()
	f.mu.Lock()
	delete(f.nodes, "C")
	f.mu.Unlock()
	os.Remove(filepath.Join(dir, "C.control.log"))
	os.Remove(filepath.Join(dir, "C.control.log.acc"))

	submit(t, nodes["A"], "noop", "while-down")

	mk("C") // re-enters at applied zero, below every peer's floor
	waitFor(t, 10*time.Second, "C restored by state transfer and caught up", func() bool {
		return len(logs["C"].snapshot()) == len(logs["A"].snapshot()) &&
			nodes["C"].Metrics().Applied == nodes["A"].Metrics().Applied
	})
	a, c := logs["A"].snapshot(), logs["C"].snapshot()
	for i := range a {
		if c[i] != a[i] {
			t.Fatalf("C diverges at %d: %+v vs %+v", i, c[i], a[i])
		}
	}

	// GC resumes: C's done-frontier recovered, so new decisions push the
	// floor past its pre-crash value everywhere.
	preFloor := nodes["A"].Metrics().Floor
	for i := 0; i < 10; i++ {
		submit(t, nodes["A"], "noop", fmt.Sprintf("post-%d", i))
	}
	waitFor(t, 10*time.Second, "floor advanced past its pre-crash value", func() bool {
		for _, n := range nodes {
			if n.Metrics().Floor <= preFloor {
				return false
			}
		}
		return true
	})
}

// TestAdoptsAcceptedValue pins the core safety rule: a new ballot must adopt
// a value any acceptor has already accepted, not its own.
func TestAdoptsAcceptedValue(t *testing.T) {
	f := newFakeNet()
	names := []string{"A", "B", "C"}
	nodes, logs := startCluster(t, f, names, fastOpts())
	// Hand-feed B an accepted value at instance 1 (ballot 5, command "early").
	early := wire.Command{Kind: "member", Origin: "Z", Seq: 1, Node: "N"}
	nodes["B"].Handle(wire.Envelope{From: "A", To: "B", Msg: wire.Prepare{Instance: 1, Ballot: 5}})
	nodes["B"].Handle(wire.Envelope{From: "A", To: "B", Msg: wire.Accept{Instance: 1, Ballot: 5, Val: early}})
	// Now C proposes its own command at the same instance; the Prepare round
	// must surface B's accepted value and decide it instead.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if _, err := nodes["C"].Submit(ctx, wire.Command{Kind: "noop", Text: "late"}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, "two entries applied", func() bool {
		return len(logs["A"].snapshot()) >= 2
	})
	first := logs["A"].snapshot()[0]
	if first.Cmd.Origin != "Z" || first.Cmd.Kind != "member" {
		t.Fatalf("instance 1 decided %+v, want the earlier accepted value", first.Cmd)
	}
}

func TestMetricsShape(t *testing.T) {
	f := newFakeNet()
	names := []string{"A", "B", "C"}
	nodes, logs := startCluster(t, f, names, fastOpts())
	submit(t, nodes["A"], "noop", "x")
	waitFor(t, 5*time.Second, "applied", func() bool { return len(logs["A"].snapshot()) == 1 })
	m := nodes["A"].Metrics()
	if m.Quorum != 2 || m.Peers != 3 {
		t.Fatalf("quorum/peers: %+v", m)
	}
	if m.Applied != 1 || m.MaxDecided < 1 || m.MaxProposed < 1 || m.Proposals != 1 {
		t.Fatalf("counters: %+v", m)
	}
}
