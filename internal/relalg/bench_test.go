package relalg

import (
	"fmt"
	"testing"
)

// BenchmarkRelationInsert measures duplicate-free insertion throughput.
func BenchmarkRelationInsert(b *testing.B) {
	b.ReportAllocs()
	r := NewRelation(MakeSchema("bench", 2))
	for i := 0; i < b.N; i++ {
		t := Tuple{S(fmt.Sprintf("k%d", i)), I(int64(i))}
		if _, err := r.Insert(t); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRelationInsertDuplicates measures the dedup fast path.
func BenchmarkRelationInsertDuplicates(b *testing.B) {
	r := NewRelation(MakeSchema("bench", 2))
	t := Tuple{S("same"), S("tuple")}
	if _, err := r.Insert(t); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := r.Insert(t); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTupleKey measures the canonical key encoding.
func BenchmarkTupleKey(b *testing.B) {
	t := Tuple{S("conf/edbt/franconi04-1-2"), S("enrico_franconi"), I(2004), Null("d1|r|V|k")}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = t.Key()
	}
}

// BenchmarkTupleHash measures the process-local tuple hash behind every
// dedup set and relation index (compare BenchmarkTupleKey).
func BenchmarkTupleHash(b *testing.B) {
	t := Tuple{S("conf/edbt/franconi04-1-2"), S("enrico_franconi"), I(2004), Null("d1|r|V|k")}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		hashSink ^= t.Hash()
	}
}

// hashSink keeps BenchmarkTupleHash's calls from being optimised away.
var hashSink uint64

// benchRelation holds n three-column tuples with 100 distinct values in the
// middle column.
func benchRelation(n int) *Relation {
	r := NewRelation(MakeSchema("bench", 3))
	for i := 0; i < n; i++ {
		_, _ = r.Insert(Tuple{S(fmt.Sprintf("k%d", i)), S(fmt.Sprintf("v%d", i%100)), I(int64(i))})
	}
	return r
}

// BenchmarkRelationContains measures the membership check, alternating a
// hit and a miss.
func BenchmarkRelationContains(b *testing.B) {
	r := benchRelation(10000)
	hit := Tuple{S("k500"), S("v0"), I(500)}
	miss := Tuple{S("k500"), S("v0"), I(501)}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if r.Contains(hit) == r.Contains(miss) {
			b.Fatal("hit and miss must differ")
		}
	}
}

// BenchmarkRelationProbe measures a two-position index probe returning 10
// of 10000 tuples.
func BenchmarkRelationProbe(b *testing.B) {
	r := benchRelation(10000)
	positions := []int{1, 0}
	vals := []Value{S("v7"), S("k507")}
	_ = r.Probe(positions, vals) // build the position index
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(r.Probe(positions[:1], vals[:1])) != 100 || len(r.Probe(positions, vals)) != 1 {
			b.Fatal("unexpected probe result")
		}
	}
}

// BenchmarkTupleSetAdd measures filling a dedup set where every tuple
// arrives twice, the evaluator's common case.
func BenchmarkTupleSetAdd(b *testing.B) {
	ts := make([]Tuple, 1000)
	for i := range ts {
		ts[i] = Tuple{S(fmt.Sprintf("k%d", i)), I(int64(i))}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var s TupleSet
		for _, t := range ts {
			s.Add(t)
		}
		for _, t := range ts {
			s.Add(t)
		}
	}
}

// BenchmarkSubsumedByExisting measures the core-mode redundancy scan.
func BenchmarkSubsumedByExisting(b *testing.B) {
	r := NewRelation(MakeSchema("bench", 3))
	for i := 0; i < 1000; i++ {
		_, _ = r.Insert(Tuple{S(fmt.Sprintf("k%d", i)), S("a"), I(int64(i))})
	}
	probe := Tuple{S("k500"), Null("n"), I(500)}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !r.SubsumedByExisting(probe) {
			b.Fatal("probe should be subsumed")
		}
	}
}

// BenchmarkValueEncode measures the binary codec used by the TCP transport.
func BenchmarkValueEncode(b *testing.B) {
	v := S("conf/edbt/franconi04")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		data, err := v.MarshalBinary()
		if err != nil {
			b.Fatal(err)
		}
		var back Value
		if err := back.UnmarshalBinary(data); err != nil {
			b.Fatal(err)
		}
	}
}
