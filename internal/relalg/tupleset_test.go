package relalg

import (
	"fmt"
	"testing"
)

// collidingTuples are pairwise distinct tuples, including ones that agree
// on every component but one and ones differing only in a value's kind.
func collidingTuples() []Tuple {
	return []Tuple{
		{S("a"), S("b")},
		{S("a"), S("c")},
		{S("b"), S("a")},
		{S("1"), I(1)},
		{I(1), I(1)},
		{Null("1"), I(1)},
		{S(""), S("")},
	}
}

// withCollisions runs f with every tuple hashed to one value, so each set
// and relation operation has to tell the tuples apart by Equal alone.
func withCollisions(t *testing.T, f func()) {
	t.Helper()
	collideForTest = true
	defer func() { collideForTest = false }()
	f()
}

func TestTupleSetCollisionsStayDistinct(t *testing.T) {
	withCollisions(t, func() {
		ts := collidingTuples()
		var s TupleSet
		for i, tu := range ts {
			if s.Has(tu) {
				t.Fatalf("Has(%v) before Add", tu)
			}
			if !s.Add(tu) {
				t.Fatalf("Add(%v) reported a duplicate", tu)
			}
			if s.Len() != i+1 {
				t.Fatalf("Len = %d after %d adds", s.Len(), i+1)
			}
		}
		for _, tu := range ts {
			if !s.Has(tu.Clone()) {
				t.Errorf("Has(%v) = false after Add", tu)
			}
			if s.Add(tu.Clone()) {
				t.Errorf("Add(%v) twice changed the set", tu)
			}
		}
		if s.Has(Tuple{S("z"), S("z")}) {
			t.Error("Has reports a tuple that was never added")
		}
		for i, tu := range s.All() {
			if !tu.Equal(ts[i]) {
				t.Errorf("All()[%d] = %v, want %v (insertion order)", i, tu, ts[i])
			}
		}
	})
}

func TestRelationCollisionsStayDistinct(t *testing.T) {
	withCollisions(t, func() {
		ts := collidingTuples()
		r := NewRelation(MakeSchema("c", 2))
		for _, tu := range ts {
			if r.Contains(tu) {
				t.Fatalf("Contains(%v) before Insert", tu)
			}
			if added, err := r.Insert(tu); err != nil || !added {
				t.Fatalf("Insert(%v): added=%v err=%v", tu, added, err)
			}
		}
		for _, tu := range ts {
			if added, _ := r.Insert(tu.Clone()); added {
				t.Errorf("duplicate Insert(%v) changed the relation", tu)
			}
		}
		if r.Len() != len(ts) {
			t.Fatalf("Len = %d, want %d", r.Len(), len(ts))
		}
		c := r.Clone()
		for _, tu := range ts {
			if !r.Contains(tu) || !c.Contains(tu) {
				t.Errorf("Contains(%v): relation %v, clone %v", tu, r.Contains(tu), c.Contains(tu))
			}
		}
		if !r.Equal(c) || !c.Equal(r) {
			t.Error("a relation must equal its clone")
		}
		// The clone's overflow buckets are its own: growing it leaves the
		// original untouched.
		extra := Tuple{S("z"), S("z")}
		if added, _ := c.Insert(extra); !added {
			t.Fatal("Insert into clone failed")
		}
		if r.Contains(extra) {
			t.Error("insert into the clone leaked into the original")
		}
		// Same size, one tuple swapped for a colliding one: not equal.
		o := NewRelation(MakeSchema("o", 2))
		for _, tu := range ts[:len(ts)-1] {
			_, _ = o.Insert(tu)
		}
		_, _ = o.Insert(extra)
		if r.Equal(o) || o.Equal(r) {
			t.Error("relations differing in one colliding tuple compared equal")
		}
	})
}

func TestHashAgreesWithEqual(t *testing.T) {
	for _, tu := range collidingTuples() {
		if tu.Hash() != tu.Clone().Hash() {
			t.Errorf("equal tuples hash differently: %v", tu)
		}
	}
	// Distinct kinds with the same payload should not collide by
	// construction (collisions are legal, but these would be systematic).
	vs := []Value{S("1"), I(1), Null("1")}
	for i := range vs {
		for j := i + 1; j < len(vs); j++ {
			if vs[i].Hash() == vs[j].Hash() {
				t.Errorf("%v and %v share a hash", vs[i].Quoted(), vs[j].Quoted())
			}
		}
	}
	if (Tuple{S("a"), S("b")}).Hash() == (Tuple{S("b"), S("a")}).Hash() {
		t.Error("tuple hash ignores component order")
	}
}

// TestKeyGolden pins Tuple.Key's bytes. Skolem null labels embed them and
// are stored in WALs, so the encoding must not change, however tempting it
// is to make it cheaper.
func TestKeyGolden(t *testing.T) {
	cases := []struct {
		t    Tuple
		want string
	}{
		{Tuple{}, ""},
		{Tuple{S("a"), I(42), Null("n1")}, "2:sa3:i423:nn1"},
		{Tuple{S(""), I(0), I(-7)}, "1:s2:i03:i-7"},
		{Tuple{S("3:sx"), S("a|b")}, "5:s3:sx4:sa|b"},
		{Tuple{Null("d1|r|V|5:sab")}, "13:nd1|r|V|5:sab"},
		{Tuple{S("é"), S("it's")}, "3:sé5:sit's"},
	}
	for _, c := range cases {
		if got := c.t.Key(); got != c.want {
			t.Errorf("%v.Key() = %q, want %q", c.t, got, c.want)
		}
	}
}

func TestIdentityPathsDoNotAllocate(t *testing.T) {
	tu := Tuple{S("conf/edbt/franconi04"), S("enrico_franconi"), I(2004), Null("d1|r|V|k")}
	r := NewRelation(MakeSchema("r", 4))
	for i := 0; i < 100; i++ {
		_, _ = r.Insert(Tuple{S(fmt.Sprintf("k%d", i)), S("a"), I(int64(i)), Null("n")})
	}
	_, _ = r.Insert(tu)
	s := NewTupleSet(len(r.All()))
	for _, x := range r.All() {
		s.Add(x)
	}
	cases := map[string]func(){
		"Tuple.Hash":                func() { _ = tu.Hash() },
		"Relation.Contains":         func() { _ = r.Contains(tu) },
		"duplicate Relation.Insert": func() { _, _ = r.Insert(tu) },
		"TupleSet.Has":              func() { _ = s.Has(tu) },
	}
	for name, f := range cases {
		if n := testing.AllocsPerRun(100, f); n != 0 {
			t.Errorf("%s: %v allocs per run, want 0", name, n)
		}
	}
}

func TestProbeAllocatesOnlyItsResult(t *testing.T) {
	r := NewRelation(MakeSchema("r", 3))
	for i := 0; i < 200; i++ {
		_, _ = r.Insert(Tuple{S(fmt.Sprintf("k%d", i%20)), I(int64(i % 7)), I(int64(i))})
	}
	positions := []int{0, 1}
	vals := []Value{S("k3"), I(2)}
	want := len(r.Probe(positions, vals)) // also builds the position index
	if want == 0 {
		t.Fatal("probe fixture matches nothing")
	}
	if n := testing.AllocsPerRun(100, func() { _ = r.Probe(positions, vals) }); n != 1 {
		t.Errorf("Probe: %v allocs per run, want 1 (the result slice)", n)
	}
	miss := []Value{S("absent"), I(2)}
	if n := testing.AllocsPerRun(100, func() { _ = r.Probe(positions, miss) }); n != 0 {
		t.Errorf("Probe with no match: %v allocs per run, want 0", n)
	}
}
