package replica

import (
	"sync"
	"testing"
	"time"

	"repro/internal/relalg"
	"repro/internal/storage"
	"repro/internal/wal"
	"repro/internal/wire"
)

// fixedControl places every node on the same mirrors and hosts it on one
// member.
type fixedControl struct {
	host    string
	mirrors []string
}

func (c fixedControl) PlacementFor(string) ([]string, uint64) { return c.mirrors, 1 }
func (c fixedControl) HostOf(string) string                   { return c.host }

// TestUnchangedStateShipsOnce runs a primary whose protocol state — several
// subscriptions with marks over several relations — never changes, through
// many StateEvery periods: each mirror must receive exactly one
// ReplicaState, and a changed state must ship once more. The state blob is
// the WAL's binary state record, whose marks are sorted, so an unchanged
// state encodes to the same bytes every period and the dedup holds.
func TestUnchangedStateShipsOnce(t *testing.T) {
	var mu sync.Mutex
	states := map[string][]wire.ReplicaState{}
	send := func(_, to string, msg wire.Message) error {
		if st, ok := msg.(wire.ReplicaState); ok {
			mu.Lock()
			states[to] = append(states[to], st)
			mu.Unlock()
		}
		return nil
	}
	mirrors := []string{"M2", "M3"}
	m := New(fixedControl{host: "M1", mirrors: mirrors}, send, Options{
		Member:      "M1",
		StateEvery:  time.Nanosecond, // every flush is a state-ship period
		ResendAfter: time.Hour,
	})
	defer m.Close()

	db := storage.New(relalg.MakeSchema("a", 2), relalg.MakeSchema("b", 2))
	for i := int64(0); i < 3; i++ {
		for _, rel := range []string{"a", "b"} {
			if _, err := db.Insert(rel, relalg.Tuple{relalg.I(i), relalg.S(rel)}, storage.InsertExact); err != nil {
				t.Fatal(err)
			}
		}
	}
	epoch := uint64(3)
	stateFn := func() wal.State {
		// A fresh marks map per call, as peer.DurableState builds them.
		st := wal.State{Epoch: epoch}
		for _, dep := range []string{"B", "C"} {
			st.Subs = append(st.Subs, wal.SubState{
				Dependent: dep, RuleID: "r" + dep, Epoch: epoch, Conj: "a(X,Y), b(Y,Z)",
				Cols: []string{"X", "Z"}, Primed: true,
				Marks: storage.Marks{"a": 3, "b": 3, "c": 1, "d": 2},
			})
		}
		st.Parts = []wal.PartState{{RuleID: "rB", Part: "p0", Cols: []string{"X"},
			Tuples: []relalg.Tuple{{relalg.I(1)}, {relalg.I(2)}}}}
		return st
	}
	m.BecomePrimary("A", db, stateFn)
	for _, mir := range mirrors {
		m.Handle(wire.Envelope{From: mir, To: "M1", Msg: wire.ReplicaSyncReq{Node: "A", Frontier: map[string]uint64{}}})
	}
	shipped := func() map[string]int {
		mu.Lock()
		defer mu.Unlock()
		out := map[string]int{}
		for to, ss := range states {
			out[to] = len(ss)
		}
		return out
	}
	for i := 0; i < 20; i++ {
		m.flushOnce()
	}
	for _, mir := range mirrors {
		if n := shipped()[mir]; n != 1 {
			t.Fatalf("unchanged state shipped %d times to %s, want 1", n, mir)
		}
	}

	m.mu.Lock()
	epoch = 4 // read by stateFn under m.mu
	m.mu.Unlock()
	for i := 0; i < 5; i++ {
		m.flushOnce()
	}
	mu.Lock()
	defer mu.Unlock()
	for _, mir := range mirrors {
		if len(states[mir]) != 2 {
			t.Fatalf("%s received %d states after one change, want 2", mir, len(states[mir]))
		}
		st, err := wal.DecodeState(states[mir][1].State)
		if err != nil || st.Epoch != 4 || len(st.Subs) != 2 || st.Subs[0].Marks["d"] != 2 || len(st.Parts[0].Tuples) != 2 {
			t.Fatalf("%s: shipped state decodes to %+v, %v", mir, st, err)
		}
	}
}
