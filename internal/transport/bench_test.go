package transport

import (
	"testing"
	"time"

	"repro/internal/wire"
)

// Per-layer Batcher benchmarks over the in-memory router: what batching
// costs one hop in latency, and what it saves a burst in frames.
//
//	go test -run '^$' -bench Batcher ./internal/transport/

// hopNet is A and B over Mem, optionally behind a Batcher; B's handler
// reports every answer it receives, unpacking batches.
type hopNet struct {
	tr      Transport
	batcher *Batcher
	got     chan int // answers per delivered frame
}

func newHopNet(b *testing.B, batched bool) *hopNet {
	mem := NewMem(MemOptions{Seed: 1})
	// Room for a whole unbatched burst, so B's handler never waits on the
	// benchmark loop.
	n := &hopNet{tr: mem, got: make(chan int, 64)}
	if batched {
		n.batcher = NewBatcher(mem, BatcherOptions{Window: 2 * time.Millisecond})
		n.tr = n.batcher
	}
	if err := n.tr.Register("B", func(env wire.Envelope) {
		if ab, ok := env.Msg.(wire.AnswerBatch); ok {
			n.got <- len(ab.Answers)
			return
		}
		n.got <- 1
	}); err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { _ = n.tr.Close() })
	return n
}

// BenchmarkBatcherHop measures send → receiving-handler latency for one
// Answer at a time (ns/op is the hop), unbatched and through the Batcher.
// Flush-on-drain should make the two legs indistinguishable; a
// flush-on-age Batcher pays its window on every hop.
func BenchmarkBatcherHop(b *testing.B) {
	for _, leg := range []struct {
		name    string
		batched bool
	}{{"unbatched", false}, {"batched", true}} {
		b.Run(leg.name, func(b *testing.B) {
			n := newHopNet(b, leg.batched)
			a := testAnswer(1)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := n.tr.Send("A", "B", a); err != nil {
					b.Fatal(err)
				}
				<-n.got
			}
		})
	}
}

// BenchmarkBatcherBurst measures the frames a 64-message burst to one
// destination costs through the Batcher (frames/msg; 1/64 is one frame per
// burst, 1 is no batching), with the burst sent from a plain goroutine —
// the drain detector's case — and from inside one handler invocation — the
// cork's case.
func BenchmarkBatcherBurst(b *testing.B) {
	const burst = 64
	for _, leg := range []string{"goroutine", "handler"} {
		b.Run(leg, func(b *testing.B) {
			n := newHopNet(b, true)
			a := testAnswer(1)
			send := func() {
				for j := 0; j < burst; j++ {
					if err := n.tr.Send("A", "B", a); err != nil {
						b.Error(err)
					}
				}
			}
			if leg == "handler" {
				if err := n.tr.Register("A", func(wire.Envelope) { send() }); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if leg == "handler" {
					if err := n.tr.Send("src", "A", wire.Query{}); err != nil {
						b.Fatal(err)
					}
				} else {
					send()
				}
				for got := 0; got < burst; {
					got += <-n.got
				}
			}
			b.StopTimer()
			st := n.batcher.Stats()
			frames := st.Frames
			if leg == "handler" {
				frames -= uint64(b.N) // the triggering Query frames
			}
			b.ReportMetric(float64(frames)/float64(b.N*burst), "frames/msg")
		})
	}
}
