package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/stats"
	"repro/internal/transport"
	"repro/internal/workload"
)

// runFixpoint is the paper's §5 measurement: a 4x4 grid of copy-style DBLP
// nodes over the in-memory router, Discover + Update to all-closed, repeated
// from a fresh Build until the measured phase ends.
func runFixpoint(ctx context.Context, cfg config, res *result) error {
	def, err := workload.Generate(workload.Grid(4, 4), workload.DataSpec{
		RecordsPerNode: cfg.gridRecords, Seed: cfg.seed, Style: workload.StyleCopy,
	})
	if err != nil {
		return err
	}
	build := func(rec *recorder) (*core.Network, error) {
		var tr transport.Transport = transport.NewMem(transport.MemOptions{Seed: cfg.seed})
		if rec != nil {
			tr = traceTransport(tr, rec, false)
		}
		sp := rec.begin("core.build", "")
		defer sp.end()
		return core.Build(def, core.Options{Delta: true, Transport: tr})
	}
	fixpoint := func(rec *recorder, n *core.Network) error {
		sp := rec.begin("core.discover", "")
		err := n.Discover(ctx)
		sp.end()
		if err != nil {
			return fmt.Errorf("discover: %w", err)
		}
		sp = rec.begin("core.update", "")
		err = n.Update(ctx)
		sp.end()
		if err != nil {
			return fmt.Errorf("update: %w", err)
		}
		if open := n.OpenPeers(); len(open) > 0 {
			return fmt.Errorf("nodes still open after update: %v", open)
		}
		return nil
	}

	// Warm-up repetition, neither timed nor traced: the referee validates
	// its fix-point, and every timed repetition must land on the same
	// per-node counts.
	n, err := build(nil)
	if err != nil {
		return err
	}
	if err := fixpoint(nil, n); err != nil {
		n.Close()
		return err
	}
	if err := n.ValidateAgainstCentralized(); err != nil {
		res.fail("fix-point differs from the centralised referee: %v", err)
	}
	want := tupleCounts(n)
	n.Close()

	rec := cfg.trace
	var setups, fixes samples
	var totals []stats.Snapshot
	mem := startMem()
	deadline := time.Now().Add(cfg.measure)
	for rep := 0; rep == 0 || time.Now().Before(deadline); rep++ {
		// Every repetition starts from a collected heap, so the previous
		// network's garbage is not charged to this one's Build and fix-point.
		runtime.GC()
		phase := rec.begin("fixpoint.rep", "")
		t0 := time.Now()
		n, err = build(rec)
		if err != nil {
			return err
		}
		setups.add(time.Since(t0))
		t1 := time.Now()
		res.ops.attempt("fixpoint", 1)
		err = fixpoint(rec, n)
		fixes.add(time.Since(t1))
		phase.end()
		if err != nil {
			res.ops.fail("fixpoint", 1)
			res.fail("repetition %d: %v", rep, err)
		} else if got := tupleCounts(n); !equalCounts(got, want) {
			res.fail("repetition %d reached different per-node counts: %v, want %v", rep, got, want)
		}
		totals = append(totals, stats.Merge(n.Stats()))
		if time.Now().Before(deadline) {
			n.Close()
		}
	}
	defer n.Close()
	mem.stop()
	heap := liveHeapMB()
	st := stats.Merge(totals)
	res.ops.attempt("send", int(st.TotalSent()))
	res.ops.fail("send", int(st.SendErrors))
	reps := float64(len(fixes))

	res.setE2E("setup_s", setups.quantile(0.5)/1000)
	res.setE2E("op_p50_ms", fixes.quantile(0.5))
	res.setE2E("heap_mb", heap)
	res.report.set("setup_s", setups.quantile(0.5)/1000, "s")
	res.report.set("fixpoint_s", fixes.quantile(0.5)/1000, "s")
	res.report.set("heap_mb", heap, "MB")
	res.report.set("final_tuples", float64(sumCounts(want)), "count")
	res.report.set("msgs_per_unit", ratio(float64(st.TotalSent()), reps), "count")
	res.report.set("tuples_imported_per_s", ratio(float64(st.TuplesInserted), fixes.sum()/1000), "1/s")
	res.note("fix-point %s; set-up %s", fixes.summary(), setups.summary())

	if rec == nil {
		return nil
	}
	res.peerLayer(rec, reps, st, mem)
	res.coreLayer(rec)
	snap := n.Snapshot()
	ruleMS, err := ruleEvalMS(def, snap)
	if err != nil {
		return err
	}
	res.setLayer("cq.rule_eval_ms", ruleMS)
	qms, err := localQueryMS(n.Node(def.Super), "pub(K,T,Y), wrote(A,K)", []string{"K", "A"})
	if err != nil {
		return err
	}
	res.setLayer("cq.localquery_ms", qms)
	return nil
}
