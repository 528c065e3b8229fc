package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/relalg"
	"repro/internal/rules"
	"repro/internal/stats"
	"repro/internal/storage"
	"repro/internal/transport"
	"repro/internal/wal"
	"repro/internal/workload"
)

// durableRun is the state of one durable workload run.
type durableRun struct {
	cfg  config
	res  *result
	rec  *recorder
	base *rules.Network // the generated definition, never written to

	setups, inserts, restarts, crashes samples
	ingest                             []float64 // rows/s per cycle
	reshipBytes, reshipTuples          samples   // reused as plain values, not ms
	openMS, openCrashMS                samples
	walRecords, walBytes, userBytes    float64
	cycles                             int
	totals                             []stats.Snapshot // one per network lifetime
	// crashSendErrors counts sends that failed because Crash dropped the
	// transport under them: the injected fault, not a failed operation.
	crashSendErrors uint64
	// The referee's fix-points after the ingest and after the crash
	// writes; every cycle writes the same tuples, so they are computed once.
	wantIngest, wantCrash map[string]*storage.DB
}

// runDurable exercises the WAL write and recovery paths: ring(6) copy-style
// data in durable stores over the in-memory router. Each cycle starts from
// an empty data directory: Build and seed, the baseline fix-point, a
// closed-loop single writer inserting pub+wrote pairs at one node until the
// network is quiescent, several clean Close → Build → RunToFixpoint
// restarts, then more writes, Crash, Build, RunToFixpoint. Cycles repeat
// until the measured phase ends.
func runDurable(ctx context.Context, cfg config, res *result) error {
	base, err := workload.Generate(workload.Ring(6), workload.DataSpec{
		RecordsPerNode: cfg.ringRecords, Seed: cfg.seed, Style: workload.StyleCopy,
	})
	if err != nil {
		return err
	}
	d := &durableRun{cfg: cfg, res: res, rec: cfg.trace, base: base}
	mem := startMem()
	deadline := time.Now().Add(cfg.measure)
	var last *core.Network
	for d.cycles == 0 || time.Now().Before(deadline) {
		if last != nil {
			d.totals = append(d.totals, stats.Merge(last.Stats()))
			if err := last.Close(); err != nil {
				return err
			}
		}
		runtime.GC() // each cycle starts from a collected heap
		last, err = d.cycle(ctx)
		if err != nil {
			if last != nil {
				last.Close()
			}
			return fmt.Errorf("cycle %d: %w", d.cycles, err)
		}
		d.cycles++
	}
	defer last.Close()
	d.totals = append(d.totals, stats.Merge(last.Stats()))
	mem.stop()
	d.wantIngest, d.wantCrash = nil, nil // benchmark state, not the system's heap
	heap := liveHeapMB()

	res.setE2E("setup_s", d.setups.quantile(0.5)/1000)
	res.setE2E("op_p50_ms", d.restarts.quantile(0.5))
	res.setE2E("heap_mb", heap)
	ingest := samples(d.ingest)
	_, insertTail, _ := d.inserts.tail()
	res.report.set("setup_s", d.setups.quantile(0.5)/1000, "s")
	res.report.set("insert_p99_ms", insertTail, "ms")
	res.report.set("ingest_rows_per_s", ingest.quantile(0.5), "1/s")
	res.report.set("restart_s", d.restarts.quantile(0.5)/1000, "s")
	res.report.set("crash_restart_s", d.crashes.quantile(0.5)/1000, "s")
	res.report.set("heap_mb", heap, "MB")
	res.report.set("reship_bytes_restart", d.reshipBytes.quantile(0.5), "bytes")
	res.report.set("final_tuples", float64(sumCounts(tupleCounts(last))), "count")
	st := stats.Merge(d.totals)
	res.ops.attempt("send", int(st.TotalSent()))
	res.ops.fail("send", int(st.SendErrors-d.crashSendErrors))
	res.report.set("crash_send_errors", float64(d.crashSendErrors), "count")
	cycles := float64(d.cycles)
	res.report.set("msgs_per_unit", ratio(float64(st.TotalSent()), cycles), "count")
	res.note("cycles %d; insert %s; clean restart %s; crash restart %s; set-up %s",
		d.cycles, d.inserts.summary(), d.restarts.summary(), d.crashes.summary(), d.setups.summary())
	res.note("re-shipped bytes per clean restart: min %.0f median %.0f max %.0f",
		d.reshipBytes.quantile(0), d.reshipBytes.quantile(0.5), d.reshipBytes.quantile(1))

	if d.rec == nil {
		return nil
	}
	res.peerLayer(d.rec, cycles, st, mem)
	res.coreLayer(d.rec)
	res.setLayer("peer.reship_bytes_restart", d.reshipBytes.quantile(0.5))
	res.setLayer("peer.reship_tuples_crash", d.reshipTuples.quantile(0.5))
	res.setLayer("wal.records", ratio(d.walRecords, cycles))
	res.setLayer("wal.disk_bytes", ratio(d.walBytes, cycles))
	res.setLayer("wal.bytes_per_user_byte", ratio(d.walBytes, d.userBytes))
	res.setLayer("wal.open_ms", d.openMS.quantile(0.5))
	res.setLayer("wal.open_ms_crash", d.openCrashMS.quantile(0.5))
	ruleMS, err := ruleEvalMS(base, last.Snapshot())
	if err != nil {
		return err
	}
	res.setLayer("cq.rule_eval_ms", ruleMS)
	qms, err := localQueryMS(last.Node(base.Super), "pub(K,T,Y), wrote(A,K)", []string{"K", "A"})
	if err != nil {
		return err
	}
	res.setLayer("cq.localquery_ms", qms)
	return nil
}

// build opens (or reopens) the cycle's network from its data directory.
func (d *durableRun) build(def *rules.Network, dir, span string) (*core.Network, error) {
	var tr transport.Transport = transport.NewMem(transport.MemOptions{Seed: d.cfg.seed})
	if d.rec != nil {
		tr = traceTransport(tr, d.rec, false)
	}
	sp := d.rec.begin(span, "")
	defer sp.end()
	return core.Build(def, core.Options{Delta: true, Transport: tr, DataDir: dir, Fsync: wal.FsyncInterval})
}

// fixpoint runs Discover + Update and checks every node closed.
func (d *durableRun) fixpoint(ctx context.Context, n *core.Network, span string) error {
	sp := d.rec.begin(span, "")
	defer sp.end()
	if err := n.RunToFixpoint(ctx); err != nil {
		return err
	}
	if open := n.OpenPeers(); len(open) > 0 {
		return fmt.Errorf("nodes still open: %v", open)
	}
	return nil
}

// write inserts pairs pub+wrote pairs at the super-peer, one tuple per
// Node.Insert, timing each call.
func (d *durableRun) write(ctx context.Context, n *core.Network, rng *rand.Rand, tag string, pairs int) error {
	node := n.Node(d.base.Super)
	for i := 0; i < pairs; i++ {
		key := relalg.S(fmt.Sprintf("bench/%d/%s/%d", d.cfg.seed, tag, i))
		pub := relalg.Tuple{key, relalg.S(fmt.Sprintf("title_%d", rng.Intn(1_000_000))), relalg.I(int64(1994 + rng.Intn(30)))}
		wrote := relalg.Tuple{relalg.S(fmt.Sprintf("author_%d", rng.Intn(1000))), key}
		for _, w := range []struct {
			rel string
			t   relalg.Tuple
		}{{"pub", pub}, {"wrote", wrote}} {
			d.res.ops.attempt("insert", 1)
			t0 := time.Now()
			_, err := node.Insert(ctx, w.rel, w.t)
			d.inserts.add(time.Since(t0))
			if err != nil {
				d.res.ops.fail("insert", 1)
				return fmt.Errorf("insert %s: %w", w.rel, err)
			}
			d.userBytes += tupleBytes(w.t)
		}
	}
	return nil
}

// referee computes the centralised fix-point of def.
func (d *durableRun) referee(def *rules.Network) (map[string]*storage.DB, error) {
	sp := d.rec.begin("bench.referee", "")
	defer sp.end()
	want, err := baseline.Centralized(def, rules.ApplyOptions{})
	if err != nil {
		return nil, err
	}
	return want.DBs, nil
}

// check compares the network with the referee's databases.
func (d *durableRun) check(n *core.Network, want map[string]*storage.DB, what string) {
	sp := d.rec.begin("bench.check", "")
	defer sp.end()
	d.res.ops.attempt("validate", 1)
	if ok, node := baseline.Equal(n.Snapshot(), want); !ok {
		d.res.ops.fail("validate", 1)
		d.res.fail("cycle %d %s: node %s diverges from the referee", d.cycles, what, node)
	}
}

// restart closes (or crashes) n, reopens it from dir and re-converges,
// returning the new network. The restart time is Build-from-DataDir plus
// RunToFixpoint; the traffic of the re-convergence is recorded too.
func (d *durableRun) restart(ctx context.Context, n *core.Network, def *rules.Network, dir string, crash bool) (*core.Network, error) {
	var err error
	pre := stats.Merge(n.Stats())
	sp := d.rec.begin("core.close", "")
	if crash {
		err = n.Crash()
	} else {
		err = n.Close()
	}
	sp.end()
	if err != nil {
		return nil, err
	}
	post := stats.Merge(n.Stats())
	d.totals = append(d.totals, post)
	if crash {
		d.crashSendErrors += post.SendErrors - pre.SendErrors
	}
	if d.rec != nil {
		sp := d.rec.begin("bench.walcopy", "")
		open, err := timeWALOpen(dir, d.cfg.dataDir)
		if err != nil {
			return nil, err
		}
		sp.end()
		if crash {
			d.openCrashMS = append(d.openCrashMS, open)
		} else {
			d.openMS = append(d.openMS, open)
		}
	}
	d.res.ops.attempt("restart", 1)
	t0 := time.Now()
	n, err = d.build(def, dir, "core.reopen")
	if err != nil {
		d.res.ops.fail("restart", 1)
		return nil, fmt.Errorf("reopen: %w", err)
	}
	if err := d.fixpoint(ctx, n, "core.reconverge"); err != nil {
		d.res.ops.fail("restart", 1)
		return n, fmt.Errorf("re-converge: %w", err)
	}
	took := time.Since(t0)
	st := stats.Merge(n.Stats())
	if crash {
		d.crashes.add(took)
		d.reshipTuples = append(d.reshipTuples, float64(st.TuplesInserted))
	} else {
		d.restarts.add(took)
		d.reshipBytes = append(d.reshipBytes, float64(st.BytesSent))
	}
	return n, nil
}

// cycle runs one cycle from an empty data directory and returns its final
// network, still open.
func (d *durableRun) cycle(ctx context.Context) (*core.Network, error) {
	dir := filepath.Join(d.cfg.dataDir, fmt.Sprintf("durable-%d", d.cycles))
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	// The cycle's definition grows with its online writes (Node.Insert
	// records them), so every referee below sees seed data plus writes.
	def := *d.base
	def.Facts = append([]rules.Fact(nil), d.base.Facts...)
	rng := rand.New(rand.NewSource(d.cfg.seed))
	phase := d.rec.begin("durable.cycle", "")
	defer phase.end()

	t0 := time.Now()
	n, err := d.build(&def, dir, "core.build")
	if err != nil {
		return nil, err
	}
	d.setups.add(time.Since(t0))
	if err := d.fixpoint(ctx, n, "core.fixpoint"); err != nil {
		return n, err
	}
	for _, f := range def.Facts {
		d.userBytes += tupleBytes(f.Tuple)
	}

	// Ingest: a closed-loop writer, then quiescence.
	t1 := time.Now()
	if err := d.write(ctx, n, rng, "ingest", d.cfg.ringPairs); err != nil {
		return n, err
	}
	sp := d.rec.begin("core.quiesce", "")
	err = n.Quiesce(ctx)
	sp.end()
	if err != nil {
		return n, fmt.Errorf("quiesce: %w", err)
	}
	d.ingest = append(d.ingest, float64(2*d.cfg.ringPairs)/time.Since(t1).Seconds())
	if d.wantIngest == nil {
		// Every cycle writes the same tuples, so the referee runs once.
		if d.wantIngest, err = d.referee(&def); err != nil {
			return n, err
		}
		// The referee must see the online writes: the bare generated
		// definition has to disagree with the network, or the checks would
		// be vacuous.
		bare, err := d.referee(d.base)
		if err != nil {
			return n, err
		}
		if ok, _ := baseline.Equal(n.Snapshot(), bare); ok {
			d.res.fail("the bare definition's referee matches the network: the online writes are missing")
		}
	}
	d.check(n, d.wantIngest, "after ingest")

	for i := 0; i < d.cfg.cleanCycles; i++ {
		if n, err = d.restart(ctx, n, &def, dir, false); err != nil {
			return n, err
		}
		d.check(n, d.wantIngest, fmt.Sprintf("clean restart %d", i))
	}

	// Crash cycle: more writes still settling when the stores are abandoned.
	if err := d.write(ctx, n, rng, "crash", d.cfg.ringPairs/4); err != nil {
		return n, err
	}
	if n, err = d.restart(ctx, n, &def, dir, true); err != nil {
		return n, err
	}
	if d.wantCrash == nil {
		if d.wantCrash, err = d.referee(&def); err != nil {
			return n, err
		}
	}
	d.check(n, d.wantCrash, "crash restart")

	if d.rec != nil {
		for _, id := range n.Nodes() {
			d.walRecords += float64(n.Store(id).Seq())
		}
		b, err := dirBytes(dir)
		if err != nil {
			return n, err
		}
		d.walBytes += float64(b)
	}
	return n, nil
}

// timeWALOpen copies every node store under dir to scratch and times
// wal.Open over the copies, so recovery replay is measured without touching
// the stores the next Build opens.
func timeWALOpen(dir, scratch string) (float64, error) {
	cp, err := os.MkdirTemp(scratch, "walcopy-")
	if err != nil {
		return 0, err
	}
	defer os.RemoveAll(cp)
	if err := copyTree(dir, cp); err != nil {
		return 0, err
	}
	entries, err := os.ReadDir(cp)
	if err != nil {
		return 0, err
	}
	var total time.Duration
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		t0 := time.Now()
		st, _, err := wal.Open(filepath.Join(cp, e.Name()), wal.Options{Fsync: wal.FsyncInterval})
		total += time.Since(t0)
		if err != nil {
			return 0, fmt.Errorf("open copy of %s: %w", e.Name(), err)
		}
		st.Abort()
	}
	return ms(total), nil
}

// copyTree copies the regular files under src into dst.
func copyTree(src, dst string) error {
	return filepath.Walk(src, func(path string, fi os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if fi.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(target, data, 0o644)
	})
}

// tupleBytes is a tuple's encoded size.
func tupleBytes(t relalg.Tuple) float64 {
	n := 0
	for _, v := range t {
		n += v.EncodedSize()
	}
	return float64(n)
}
