package main

import (
	"context"
	"fmt"
	"math/rand"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/consensus"
	"repro/internal/core"
	"repro/internal/relalg"
	"repro/internal/replica"
	"repro/internal/rules"
	"repro/internal/serving"
	"repro/internal/stats"
	"repro/internal/storage"
	"repro/internal/transport"
	"repro/internal/wal"
)

// liveNames are the members of the live cluster: an insert at C reaches A
// through two rule hops.
var liveNames = []string{"A", "B", "C"}

const liveRules = `
node A { rel a(k,t) }
node B { rel b(k,t) }
node C { rel c(k,t) }
rule rb: C:c(X,T) -> B:b(X,T)
rule ra: B:b(X,T) -> A:a(X,T)
super A
`

// deliverLimit is the delivery latency past which a watched tuple counts as
// failed (the serve-load experiment's CI ceiling).
const deliverLimit = 500 * time.Millisecond

// liveMember is one in-process cluster member, wired as
// `p2pdb serve -replicas 1 -data <dir>` wires it.
type liveMember struct {
	net *core.Network
	tr  *cluster.Transport
	cp  *cluster.ControlPlane
	mgr *replica.Manager
}

func (m *liveMember) close() {
	if m.cp != nil {
		m.cp.Close()
	}
	if m.mgr != nil {
		m.mgr.Close()
	}
	if m.net != nil {
		_ = m.net.Close()
	}
}

// bootMember starts one member: the cluster transport with the serve
// defaults (1s heartbeat, 2ms batch window), a durable delta network with
// the 1s resend loop, the consensus control plane and one mirror per node.
// A traced run hands core.Build the traced transport.
func bootMember(def *rules.Network, node, dir string, book map[string]string, rec *recorder) (*liveMember, error) {
	seed := map[string]string{}
	for k, v := range book {
		seed[k] = v
	}
	tr, err := cluster.New(node, "127.0.0.1:0", seed, cluster.Options{
		HeartbeatEvery: time.Second,
		BatchWindow:    2 * time.Millisecond,
		BatchBytes:     64 << 10,
	})
	if err != nil {
		return nil, err
	}
	var ptr transport.Transport = tr
	if rec != nil {
		ptr = traceTransport(tr, rec, true)
	}
	sp := rec.begin("core.build", node)
	n, err := core.Build(def, core.Options{
		Delta:       true,
		Hosted:      []string{node},
		Transport:   ptr,
		DataDir:     dir,
		Fsync:       wal.FsyncInterval,
		ResendEvery: time.Second,
	})
	sp.end()
	if err != nil {
		return nil, err
	}
	m := &liveMember{net: n, tr: tr}
	tr.SetOnMemberUp(func(member string) {
		if p := n.Peer(node); p != nil {
			p.ResendUnackedTo(member)
		}
	})
	tr.SetOnStatusChange(func(member string, st cluster.Status) {
		if st == cluster.StatusDead || st == cluster.StatusLeft {
			if p := n.Peer(node); p != nil {
				p.CancelRemoteWatches(member)
			}
		}
	})
	mgrReady := make(chan struct{})
	promote := func(dead string) {
		<-mgrReady
		if p := n.Peer(dead); p != nil {
			m.mgr.BecomePrimary(dead, p.DB(), p.DurableState)
			return
		}
		tr.AllowAlias(dead)
		db, st, restore, err := m.mgr.Promote(dead)
		if err != nil {
			return
		}
		if err := n.Adopt(dead, db, st, restore); err != nil {
			return
		}
		p := n.Peer(dead)
		m.mgr.BecomePrimary(dead, p.DB(), p.DurableState)
	}
	cp, err := cluster.NewControlPlane(tr, n.Peer(node), liveNames, cluster.ControlPlaneOptions{
		Consensus: consensus.Options{LogPath: filepath.Join(dir, node+".control.log")},
		Replication: cluster.ReplicationOptions{
			K: 1,
			Frontier: func(dead string) uint64 {
				<-mgrReady
				return m.mgr.Frontier(dead)
			},
			OnPromote: promote,
			OnDeposed: func(string) {},
		},
	})
	if err != nil {
		_ = n.Close()
		return nil, err
	}
	m.cp = cp
	m.mgr = replica.New(cp, tr.Send, replica.Options{
		Member:  node,
		Nodes:   liveNames,
		K:       1,
		DataDir: dir,
		WAL:     wal.Options{Fsync: wal.FsyncInterval},
	})
	tr.SetReplica(m.mgr.Handle)
	if p := n.Peer(node); p != nil {
		m.mgr.BecomePrimary(node, p.DB(), p.DurableState)
	}
	close(mgrReady)
	for _, dead := range cp.AdoptedNodes() {
		promote(dead)
	}
	tr.Announce()
	return m, nil
}

// liveCluster is a booted cluster with its coordinator.
type liveCluster struct {
	members map[string]*liveMember
	coord   *cluster.Coordinator
	setup   time.Duration
	join    time.Duration
	disc    time.Duration
	update  time.Duration
}

func (c *liveCluster) close() {
	if c.coord != nil {
		_ = c.coord.Close()
	}
	for _, name := range liveNames {
		if m := c.members[name]; m != nil {
			m.close()
		}
	}
}

// liveDef parses the live network with seeded c facts: seed tuples that the
// baseline update carries to A before any watch registers.
func liveDef(seedKeys []string) (*rules.Network, error) {
	var b strings.Builder
	b.WriteString(liveRules)
	for i, k := range seedKeys {
		fmt.Fprintf(&b, "fact C:c('%s',%d)\n", k, i)
	}
	return rules.ParseNetwork(b.String())
}

// bootCluster boots the three members and a coordinator, then runs the
// join, discovery and baseline update through the agreed log: the live
// workload's set-up.
func bootCluster(ctx context.Context, seedKeys []string, dir string, rec *recorder) (*liveCluster, error) {
	c := &liveCluster{members: map[string]*liveMember{}}
	t0 := time.Now()
	book := map[string]string{}
	for _, node := range liveNames {
		def, err := liveDef(seedKeys) // one definition per member: Node.Insert appends to it
		if err != nil {
			return c, err
		}
		m, err := bootMember(def, node, filepath.Join(dir, node), book, rec)
		if err != nil {
			return c, fmt.Errorf("boot %s: %w", node, err)
		}
		c.members[node] = m
		book[node] = m.tr.Addr()
	}
	def, err := liveDef(seedKeys)
	if err != nil {
		return c, err
	}
	c.coord, err = cluster.NewCoordinator(def, "127.0.0.1:0", book, cluster.CoordinatorOptions{
		Membership: cluster.Options{HeartbeatEvery: time.Second, BatchWindow: 2 * time.Millisecond, BatchBytes: 64 << 10},
	})
	if err != nil {
		return c, err
	}
	t1 := time.Now()
	sp := rec.begin("cluster.join", "")
	err = c.coord.WaitMembers(ctx, len(liveNames))
	sp.end()
	if err != nil {
		return c, fmt.Errorf("join: %w", err)
	}
	t2 := time.Now()
	sp = rec.begin("cluster.discover", "")
	err = c.coord.Discover(ctx)
	sp.end()
	if err != nil {
		return c, fmt.Errorf("discover: %w", err)
	}
	t3 := time.Now()
	sp = rec.begin("cluster.update", "")
	err = c.coord.Update(ctx)
	sp.end()
	if err != nil {
		return c, fmt.Errorf("baseline update: %w", err)
	}
	t4 := time.Now()
	c.setup, c.join, c.disc, c.update = t4.Sub(t0), t2.Sub(t1), t3.Sub(t2), t4.Sub(t3)
	return c, nil
}

// watchLedger is one remote watch's delivery record.
type watchLedger struct {
	w        *cluster.RemoteWatch
	seen     []bool
	got      atomic.Int64 // distinct inserted keys delivered
	dups     int
	unknown  int
	late     int
	lats     samples // delivery latencies past the warm-up
	closeErr error
}

// runLive drives the deployment's read/write path: open-loop single-tuple
// inserts at C at a fixed rate, coordinator queries at A at a lower fixed
// rate, and 64 remote watches on A:a(X,T) consuming every delivery.
func runLive(ctx context.Context, cfg config, res *result) error {
	rng := rand.New(rand.NewSource(cfg.seed))
	prefix := fmt.Sprintf("s%d-%06d", cfg.seed, rng.Intn(1_000_000))
	seedKeys := make([]string, cfg.liveSeed)
	for i := range seedKeys {
		seedKeys[i] = fmt.Sprintf("%s-seed-%d", prefix, i)
	}
	rec := cfg.trace

	// Set-up, several times: every boot but the last is torn down again.
	var setups, joins, discs, updates samples
	var c *liveCluster
	for i := 0; i < cfg.setups; i++ {
		dir := filepath.Join(cfg.dataDir, fmt.Sprintf("live-%d", i))
		var err error
		var bootRec *recorder // only the measured cluster is traced
		if i == cfg.setups-1 {
			bootRec = rec
		}
		c, err = bootCluster(ctx, seedKeys, dir, bootRec)
		if err != nil {
			c.close()
			return err
		}
		setups.add(c.setup)
		joins.add(c.join)
		discs.add(c.disc)
		updates.add(c.update)
		if i < cfg.setups-1 {
			c.close()
		}
	}
	defer c.close()

	// Watches register after the baseline: their prime is the seeded data.
	ledgers := make([]*watchLedger, cfg.watches)
	for i := range ledgers {
		w, err := c.coord.Watch("A", "a(X,T)", []string{"X", "T"}, cluster.WatchOptions{Policy: "block", QueueCap: 256})
		if err != nil {
			return fmt.Errorf("watch %d: %w", i, err)
		}
		ledgers[i] = &watchLedger{w: w}
	}
	defer func() {
		for _, l := range ledgers {
			l.w.Close()
		}
	}()
	for i, l := range ledgers {
		d, err := l.w.Next(ctx)
		if err != nil || !d.Prime {
			return fmt.Errorf("watch %d prime: %+v %v", i, d, err)
		}
		if len(d.Tuples) != len(seedKeys) {
			res.fail("watch %d primed with %d tuples, want the %d seeded", i, len(d.Tuples), len(seedKeys))
		}
	}

	// The schedule opens with a warm-up at the same rate, whose latencies
	// are not counted: the first seconds after a boot carry the cluster's
	// own settling (replica anti-entropy, log syncs). Its deliveries are
	// still checked.
	period := time.Second / time.Duration(cfg.liveRate)
	warm := int(cfg.warmup / period)
	total := warm + int(cfg.measure/period)
	sched := make([]atomic.Int64, total) // scheduled send time, ns since start
	for _, l := range ledgers {
		l.seen = make([]bool, total)
	}
	loadCtx, stopLoad := context.WithCancel(ctx)
	defer stopLoad()

	var mem *memDelta
	var sampler sync.WaitGroup
	var maxDepth, maxLag int // read after sampler.Wait
	if rec != nil {
		sampler.Add(1)
		go func() {
			defer sampler.Done()
			maxDepth, maxLag = sampleLive(loadCtx, c)
		}()
	}

	var consumers sync.WaitGroup
	start := time.Now().Add(20 * time.Millisecond)
	for _, l := range ledgers {
		consumers.Add(1)
		go func(l *watchLedger) {
			defer consumers.Done()
			consume(loadCtx, l, sched, start, warm, rec)
		}(l)
	}

	// The query client: a fixed lower rate of point queries on seeded keys,
	// whose answers are known.
	var queries samples
	var queryWG sync.WaitGroup
	var queryFails []string
	queryAttempts := 0
	queryWG.Add(1)
	go func() {
		defer queryWG.Done()
		qrng := rand.New(rand.NewSource(cfg.seed + 1))
		qperiod := time.Second / time.Duration(cfg.queryRate)
		for i := 0; ; i++ {
			due := start.Add(time.Duration(i) * qperiod)
			if due.Sub(start) >= cfg.warmup+cfg.measure {
				return
			}
			select {
			case <-loadCtx.Done():
				return
			case <-time.After(time.Until(due)):
			}
			k := qrng.Intn(len(seedKeys))
			t0 := time.Now()
			got, err := c.coord.Query(loadCtx, "A", fmt.Sprintf("a('%s',T)", seedKeys[k]), []string{"T"})
			t1 := time.Now()
			if loadCtx.Err() != nil {
				return // cut short by the end of the load, not failed
			}
			queryAttempts++
			if due.Sub(start) >= cfg.warmup {
				queries.add(t1.Sub(t0))
			}
			rec.event("cluster.query", seedKeys[k], 0, t0, t1)
			switch {
			case err != nil:
				queryFails = append(queryFails, err.Error())
			case len(got) != 1 || got[0][0].Kind() != relalg.KindInt || got[0][0].Int() != int64(k):
				queryFails = append(queryFails, fmt.Sprintf("query for seeded key %d answered %v", k, got))
			}
		}
	}()

	// The writer: one goroutine, open loop. Each insert is timed from when
	// it was due, so a stalled insert delays the deliveries behind it.
	cNode := c.members["C"].net.Node("C")
	phase := rec.begin("live.load", "")
	var st0 stats.Snapshot
	var inserts, lag samples
	insertFails := 0
	for i := 0; i < total; i++ {
		due := start.Add(time.Duration(i) * period)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		if i == warm {
			mem, st0 = startMem(), liveStats(c)
		}
		sched[i].Store(int64(due.Sub(start)))
		key := fmt.Sprintf("%s-%d", prefix, i)
		t0 := time.Now()
		_, err := cNode.Insert(ctx, "c", relalg.Tuple{relalg.S(key), relalg.I(int64(i))})
		t1 := time.Now()
		if i >= warm {
			lag.add(t0.Sub(due))
			inserts.add(t1.Sub(t0))
		}
		rec.event("live.insert", key, phase.spanID(), t0, t1)
		if err != nil {
			insertFails++
		}
	}
	var backlog int64
	for _, l := range ledgers {
		backlog += int64(total) - l.got.Load()
	}
	// Drain: every watch should hold every key well within the limit.
	drainUntil := time.Now().Add(2 * deliverLimit)
	for time.Now().Before(drainUntil) && !allDelivered(ledgers, total) {
		time.Sleep(5 * time.Millisecond)
	}
	loadEnd := time.Now()
	stopLoad()
	consumers.Wait()
	queryWG.Wait()
	sampler.Wait()
	phase.end()
	mem.stop()
	st := statsSince(liveStats(c), st0)
	heap := liveHeapMB()

	// Ledger and output checks.
	res.ops.attempt("insert", total)
	res.ops.fail("insert", insertFails)
	res.ops.attempt("query", queryAttempts)
	res.ops.fail("query", len(queryFails))
	for _, f := range queryFails {
		res.fail("%s", f)
	}
	var delivered samples
	res.ops.attempt("deliver", total*len(ledgers))
	for i, l := range ledgers {
		missing := total - int(l.got.Load())
		res.ops.fail("deliver", missing+l.late)
		if missing > 0 || l.dups > 0 || l.unknown > 0 {
			res.fail("watch %d: %d of %d keys missing, %d duplicates, %d unknown tuples", i, missing, total, l.dups, l.unknown)
		}
		if l.closeErr != nil {
			res.fail("watch %d: %v", i, l.closeErr)
		}
		delivered = append(delivered, l.lats...)
	}
	res.ops.attempt("send", int(st.TotalSent()))
	res.ops.fail("send", int(st.SendErrors))
	head, err := c.coord.Query(ctx, "A", "a(X,T)", []string{"X", "T"})
	if err != nil {
		return fmt.Errorf("final head query: %w", err)
	}
	if err := checkHead(head, prefix, seedKeys, total); err != nil {
		res.fail("final head query: %v", err)
	}

	loadSeconds := loadEnd.Sub(start.Add(cfg.warmup)).Seconds()
	res.setE2E("setup_s", setups.quantile(0.5)/1000)
	res.setE2E("op_p50_ms", delivered.quantile(0.5))
	res.setE2E("heap_mb", heap)
	res.report.set("setup_s", setups.quantile(0.5)/1000, "s")
	res.report.set("deliver_p50_ms", delivered.quantile(0.5), "ms")
	p, v, _ := delivered.tail()
	res.report.set(fmt.Sprintf("deliver_p%g_ms", p), v, "ms")
	p, v, _ = queries.tail()
	res.report.set(fmt.Sprintf("query_p%g_ms", p), v, "ms")
	p, v, _ = inserts.tail()
	res.report.set(fmt.Sprintf("insert_p%g_ms", p), v, "ms")
	res.report.set("heap_mb", heap, "MB")
	res.report.set("final_tuples", float64(len(head)), "count")
	res.report.set("msgs_per_unit", ratio(float64(st.TotalSent()), loadSeconds), "count")
	res.note("inserts %d at %d/s, %d watches, queries %d at %d/s; delivery %s; query %s; insert %s; set-up %s",
		total, cfg.liveRate, len(ledgers), len(queries), cfg.queryRate, delivered.summary(), queries.summary(), inserts.summary(), setups.summary())

	if rec == nil {
		return nil
	}
	res.peerLayer(rec, loadSeconds, st, mem)
	res.coreLayer(rec)
	var bs transport.BatchStats
	var sm serving.Metrics
	var walRecords float64
	var cons consensus.Metrics
	var rep replica.Metrics
	snap := map[string]*storage.DB{}
	for _, name := range liveNames {
		m := c.members[name]
		if b, ok := m.tr.BatchStats(); ok {
			bs.Frames += b.Frames
			bs.Coalesced += b.Coalesced
			bs.PiggybackedAcks += b.PiggybackedAcks
		}
		hm := m.net.Peer(name).Serving().Metrics()
		sm.Extractions += hm.Extractions
		sm.Evaluations += hm.Evaluations
		sm.SavedExtractions += hm.SavedExtractions
		sm.DroppedBatches += hm.DroppedBatches
		walRecords += float64(m.net.Store(name).Seq())
		cm := m.cp.Metrics()
		cons.Proposals += cm.Proposals
		cons.Applied += cm.Applied
		cons.NoopFills += cm.NoopFills
		rm := m.mgr.Metrics()
		rep.Appends += rm.Appends
		rep.Acks += rm.Acks
		rep.Rewinds += rm.Rewinds
		for id, db := range m.net.Snapshot() {
			snap[id] = db
		}
	}
	per := func(v float64) float64 { return ratio(v, loadSeconds) }
	res.setLayer("transport.frames", per(float64(bs.Frames)))
	res.setLayer("transport.frames_per_tuple", ratio(float64(bs.Frames), float64(st.TuplesInserted)))
	res.setLayer("transport.coalesced", per(float64(bs.Coalesced)))
	res.setLayer("transport.acks_piggybacked", per(float64(bs.PiggybackedAcks)))
	ls := rec.layer()
	expansion, encUS, decUS, err := rec.wireReplay()
	if err != nil {
		return err
	}
	res.setLayer("wire.bytes_sent", per(float64(ls.bytes)))
	res.setLayer("wire.encoded_bytes", per(float64(ls.bytes)*expansion))
	res.setLayer("wire.encode_us_per_frame", encUS)
	res.setLayer("wire.decode_us_per_frame", decUS)
	res.setLayer("serving.extractions", per(float64(sm.Extractions)))
	res.setLayer("serving.evaluations", per(float64(sm.Evaluations)))
	res.setLayer("serving.saved_extractions", per(float64(sm.SavedExtractions)))
	res.setLayer("serving.dropped_batches", float64(sm.DroppedBatches))
	res.setLayer("serving.max_queue_depth", float64(maxDepth))
	disk, err := dirBytes(filepath.Join(cfg.dataDir, fmt.Sprintf("live-%d", cfg.setups-1)))
	if err != nil {
		return err
	}
	userBytes := 0.0
	for _, t := range head {
		userBytes += tupleBytes(t)
	}
	res.setLayer("wal.records", walRecords)
	res.setLayer("wal.disk_bytes", float64(disk))
	res.setLayer("wal.bytes_per_user_byte", ratio(float64(disk), userBytes))
	res.setLayer("cluster.join_ms", joins.quantile(0.5))
	res.setLayer("cluster.discover_ms", discs.quantile(0.5))
	res.setLayer("cluster.update_ms", updates.quantile(0.5))
	res.setLayer("cluster.query_ms", queries.quantile(0.5))
	res.setLayer("consensus.proposals", float64(cons.Proposals))
	res.setLayer("consensus.applied", float64(cons.Applied))
	res.setLayer("consensus.noop_fills", float64(cons.NoopFills))
	res.setLayer("replica.appends", per(float64(rep.Appends)))
	res.setLayer("replica.acks", per(float64(rep.Acks)))
	res.setLayer("replica.rewinds", float64(rep.Rewinds))
	res.setLayer("replica.frontier_lag_max", float64(maxLag))
	res.setLayer("load.generator_lag_p99_ms", lag.quantile(0.99))
	res.setLayer("load.backlog_tuples", float64(backlog))
	res.setLayer("load.deliver_samples", float64(len(delivered)))
	def, err := liveDef(seedKeys)
	if err != nil {
		return err
	}
	ruleMS, err := ruleEvalMS(def, snap)
	if err != nil {
		return err
	}
	res.setLayer("cq.rule_eval_ms", ruleMS)
	qms, err := localQueryMS(c.members["A"].net.Node("A"), "a(X,T)", []string{"X", "T"})
	if err != nil {
		return err
	}
	res.setLayer("cq.localquery_ms", qms)
	return nil
}

// consume drains one watch until the load context ends, checking each
// delivered tuple against the insert schedule. Latencies of the first warm
// inserts are not kept.
func consume(ctx context.Context, l *watchLedger, sched []atomic.Int64, start time.Time, warm int, rec *recorder) {
	for {
		d, err := l.w.Next(ctx)
		if err != nil {
			return
		}
		if d.Closed {
			l.closeErr = fmt.Errorf("watch closed: %s", d.Err)
			return
		}
		now := time.Now()
		for _, t := range d.Tuples {
			if len(t) != 2 || t[1].Kind() != relalg.KindInt {
				l.unknown++
				continue
			}
			i := t[1].Int()
			if i < 0 || int(i) >= len(l.seen) {
				l.unknown++
				continue
			}
			if l.seen[i] {
				l.dups++
				continue
			}
			l.seen[i] = true
			l.got.Add(1)
			due := start.Add(time.Duration(sched[i].Load()))
			lat := now.Sub(due)
			if int(i) >= warm {
				l.lats.add(lat)
			}
			if lat > deliverLimit {
				l.late++
			}
			if i%50 == 0 {
				rec.event("watch.deliver", t[0].String(), 0, due, now)
			}
		}
	}
}

func allDelivered(ls []*watchLedger, total int) bool {
	for _, l := range ls {
		if int(l.got.Load()) < total {
			return false
		}
	}
	return true
}

// checkHead compares the final head relation with the seeded and inserted
// keys.
func checkHead(head []relalg.Tuple, prefix string, seedKeys []string, total int) error {
	want := make(map[string]int64, len(seedKeys)+total)
	for i, k := range seedKeys {
		want[k] = int64(i)
	}
	for i := 0; i < total; i++ {
		want[fmt.Sprintf("%s-%d", prefix, i)] = int64(i)
	}
	if len(head) != len(want) {
		return fmt.Errorf("%d tuples, want %d", len(head), len(want))
	}
	for _, t := range head {
		v, ok := want[t[0].String()]
		if !ok || t[1].Kind() != relalg.KindInt || t[1].Int() != v {
			return fmt.Errorf("unexpected tuple %v", t)
		}
	}
	return nil
}

// liveStats merges the members' peer statistics.
func liveStats(c *liveCluster) stats.Snapshot {
	var snaps []stats.Snapshot
	for _, name := range liveNames {
		snaps = append(snaps, c.members[name].net.Peer(name).Counters().Snapshot())
	}
	return stats.Merge(snaps)
}

// statsSince subtracts an earlier merged snapshot from a later one.
func statsSince(after, before stats.Snapshot) stats.Snapshot {
	out := after
	out.MsgsSent = map[string]uint64{}
	out.MsgsReceived = map[string]uint64{}
	for k, v := range after.MsgsSent {
		out.MsgsSent[k] = v - before.MsgsSent[k]
	}
	for k, v := range after.MsgsReceived {
		out.MsgsReceived[k] = v - before.MsgsReceived[k]
	}
	out.BytesSent -= before.BytesSent
	out.BytesRecv -= before.BytesRecv
	out.QueriesExecuted -= before.QueriesExecuted
	out.UpdatesApplied -= before.UpdatesApplied
	out.TuplesInserted -= before.TuplesInserted
	out.TuplesDuplicate -= before.TuplesDuplicate
	out.DuplicateQueries -= before.DuplicateQueries
	out.Truncated -= before.Truncated
	out.SendErrors -= before.SendErrors
	return out
}

// sampleLive polls the serving queue depth and the replication frontier lag
// every 20ms until ctx ends and returns their maxima.
func sampleLive(ctx context.Context, c *liveCluster) (maxDepth, maxLag int) {
	tick := time.NewTicker(20 * time.Millisecond)
	defer tick.Stop()
	for {
		select {
		case <-ctx.Done():
			return maxDepth, maxLag
		case <-tick.C:
		}
		depth, lag := 0, 0
		for _, name := range liveNames {
			m := c.members[name]
			for _, q := range m.net.Peer(name).Serving().Metrics().Queues {
				depth += q.Depth
			}
			lag += int(cluster.CollectReplicationMetrics(m.mgr, m.cp, name).FrontierLag)
		}
		maxDepth, maxLag = max(maxDepth, depth), max(maxLag, lag)
	}
}
