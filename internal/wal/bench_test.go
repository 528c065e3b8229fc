package wal

import (
	"fmt"
	"testing"

	"repro/internal/relalg"
	"repro/internal/storage"
)

// benchTuples returns n distinct two-column tuples.
func benchTuples(n int) []relalg.Tuple {
	out := make([]relalg.Tuple, n)
	for i := range out {
		out[i] = relalg.Tuple{relalg.S(fmt.Sprintf("key-%d", i)), relalg.I(int64(i))}
	}
	return out
}

// BenchmarkWALAppend measures one committed insert through an attached
// store — the database insert plus the listener's record encode and framed
// append — under each fsync policy (always: one group-committed fsync per
// insert; interval: a background flush; never: buffered only). The
// checkpointer is off so segment rolls cost only the roll itself.
func BenchmarkWALAppend(b *testing.B) {
	for _, policy := range []FsyncPolicy{FsyncAlways, FsyncInterval, FsyncNever} {
		b.Run(policy.String(), func(b *testing.B) {
			st, rec, err := Open(b.TempDir(), Options{Fsync: policy, NoCheckpointer: true})
			if err != nil {
				b.Fatal(err)
			}
			defer st.Close()
			db := rec.DB
			st.Attach(db)
			if err := db.AddSchema(relalg.MakeSchema("r", 2)); err != nil {
				b.Fatal(err)
			}
			tuples := benchTuples(b.N)
			b.ReportAllocs()
			b.ResetTimer()
			for _, t := range tuples {
				if _, err := db.Insert("r", t, storage.InsertExact); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkWALRecover measures recovering a crashed store of 20000 inserts
// over several segments (no snapshot, so every record replays); ns/op is
// one whole recovery.
func BenchmarkWALRecover(b *testing.B) {
	const records = 20000
	dir := b.TempDir()
	st, rec, err := Open(dir, Options{Fsync: FsyncNever, NoCheckpointer: true, SegmentBytes: 256 << 10})
	if err != nil {
		b.Fatal(err)
	}
	st.Attach(rec.DB)
	if err := rec.DB.AddSchema(relalg.MakeSchema("r", 2)); err != nil {
		b.Fatal(err)
	}
	for _, t := range benchTuples(records) {
		if _, err := rec.DB.Insert("r", t, storage.InsertExact); err != nil {
			b.Fatal(err)
		}
	}
	if err := st.Sync(); err != nil {
		b.Fatal(err)
	}
	st.Abort()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		got, err := Inspect(dir)
		if err != nil {
			b.Fatal(err)
		}
		if n := got.DB.TotalTuples(); n != records {
			b.Fatalf("recovered %d tuples, want %d", n, records)
		}
	}
}
