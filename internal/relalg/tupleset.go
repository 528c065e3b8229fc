package relalg

import (
	"maps"
	"slices"
)

// TupleSet is an insertion-ordered set of tuples indexed by their
// process-local hash (Tuple.Hash). Each hash maps to the position of the
// first tuple stored under it; later tuples sharing that hash — a collision,
// vanishingly rare at 64 bits — chain in an overflow bucket. Every hit is
// confirmed with Tuple.Equal, so membership is exact whatever the hash does.
// No key string is built, and Has and a duplicate Add do not allocate.
//
// Relation keeps its log in a TupleSet, so the evaluator's dedup sets and the
// relation index share this one bucket logic. The hash never leaves the
// process (see the package doc). The zero value is an empty set ready to use;
// a TupleSet is not safe for concurrent use.
type TupleSet struct {
	index    map[uint64]int32   // hash -> position of the first tuple with it
	overflow map[uint64][]int32 // hash -> positions of later colliding tuples
	tuples   []Tuple            // insertion order
}

// collideForTest makes tupleHash map every tuple to one hash. Internal tests
// set it to drive distinct tuples through the overflow buckets of every set
// and relation operation.
var collideForTest bool

// tupleHash is the hash every TupleSet indexes by.
func tupleHash(t Tuple) uint64 {
	if collideForTest {
		return 0
	}
	return t.Hash()
}

// NewTupleSet returns an empty set sized for about n tuples.
func NewTupleSet(n int) *TupleSet {
	return &TupleSet{index: make(map[uint64]int32, n), tuples: make([]Tuple, 0, n)}
}

// Len returns the number of distinct tuples; a nil set is empty.
func (s *TupleSet) Len() int {
	if s == nil {
		return 0
	}
	return len(s.tuples)
}

// All returns the tuples in insertion order. The slice aliases the set;
// callers must not modify it or the tuples.
func (s *TupleSet) All() []Tuple { return s.tuples }

// Has reports whether t is in the set; a nil set holds nothing.
func (s *TupleSet) Has(t Tuple) bool {
	if s == nil {
		return false
	}
	_, found := s.find(t, tupleHash(t))
	return found
}

// Add inserts t unless an equal tuple is present, reporting whether the set
// changed. The set keeps t itself, so callers must not mutate it afterwards.
func (s *TupleSet) Add(t Tuple) bool { return s.add(t, false) }

// find looks t up under hash h. taken reports whether any tuple is stored
// under h at all, which tells add whether the new position goes into the
// index or the overflow bucket.
func (s *TupleSet) find(t Tuple, h uint64) (taken, found bool) {
	p, taken := s.index[h]
	if !taken {
		return false, false
	}
	if s.tuples[p].Equal(t) {
		return true, true
	}
	for _, q := range s.overflow[h] {
		if s.tuples[q].Equal(t) {
			return true, true
		}
	}
	return true, false
}

// add inserts t unless present; clone stores a private copy instead of t
// (Relation's ownership rule).
func (s *TupleSet) add(t Tuple, clone bool) bool {
	h := tupleHash(t)
	taken, found := s.find(t, h)
	if found {
		return false
	}
	if clone {
		t = t.Clone()
	}
	pos := int32(len(s.tuples))
	s.tuples = append(s.tuples, t)
	if !taken {
		if s.index == nil {
			s.index = make(map[uint64]int32)
		}
		s.index[h] = pos
		return true
	}
	if s.overflow == nil {
		s.overflow = make(map[uint64][]int32)
	}
	s.overflow[h] = append(s.overflow[h], pos)
	return true
}

// clone deep-copies the set: fresh tuples, and index buckets copied as they
// are (positions do not change), so nothing is rehashed.
func (s *TupleSet) clone() TupleSet {
	c := TupleSet{index: maps.Clone(s.index), tuples: make([]Tuple, len(s.tuples))}
	for i, t := range s.tuples {
		c.tuples[i] = t.Clone()
	}
	if len(s.overflow) > 0 {
		c.overflow = make(map[uint64][]int32, len(s.overflow))
		for h, ps := range s.overflow {
			c.overflow[h] = slices.Clone(ps)
		}
	}
	return c
}
