package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/core"
	"repro/internal/cq"
	"repro/internal/rules"
	"repro/internal/stats"
	"repro/internal/storage"
)

// endToEnd lists the gated end-to-end metrics every workload reports, with
// units. Their meaning per workload is tabled in doc.go.
var endToEnd = [][2]string{
	{"setup_s", "s"},
	{"op_p50_ms", "ms"},
	{"heap_mb", "MB"},
}

// perLayer lists the per-layer metrics a traced run reports, with units.
// Every workload reports all of them; a layer the workload leaves idle
// reads 0. Counts and busy times are per work unit (doc.go).
var perLayer = [][2]string{
	{"core.build_ms", "ms"},
	{"core.discover_ms", "ms"},
	{"core.update_ms", "ms"},
	{"core.quiesce_ms", "ms"},
	{"core.reopen_ms", "ms"},
	{"core.reconverge_ms", "ms"},
	{"peer.handle_busy_ms", "ms"},
	{"peer.handle_busy_ms.answer", "ms"},
	{"peer.handle_busy_ms.query", "ms"},
	{"peer.handle_busy_ms.answerAck", "ms"},
	{"peer.handle_busy_ms.answerBatch", "ms"},
	{"peer.handle_p99_us", "us"},
	{"peer.msgs_sent", "count"},
	{"peer.msgs_per_tuple", "ratio"},
	{"peer.queries_executed", "count"},
	{"peer.dup_answer_share", "ratio"},
	{"peer.reship_bytes_restart", "bytes"},
	{"peer.reship_tuples_crash", "count"},
	{"peer.send_errors", "count"},
	{"storage.tuples_inserted", "count"},
	{"storage.tuples_duplicate", "count"},
	{"cq.rule_eval_ms", "ms"},
	{"cq.localquery_ms", "ms"},
	{"runtime.alloc_bytes_per_tuple", "bytes"},
	{"runtime.allocs_per_tuple", "count"},
	{"runtime.gc_pause_ms", "ms"},
	{"transport.frames", "count"},
	{"transport.frames_per_tuple", "ratio"},
	{"transport.coalesced", "count"},
	{"transport.acks_piggybacked", "count"},
	{"transport.frame_wait_p50_ms", "ms"},
	{"transport.frame_wait_p99_ms", "ms"},
	{"wire.bytes_sent", "bytes"},
	{"wire.encoded_bytes", "bytes"},
	{"wire.encode_us_per_frame", "us"},
	{"wire.decode_us_per_frame", "us"},
	{"serving.extractions", "count"},
	{"serving.evaluations", "count"},
	{"serving.saved_extractions", "count"},
	{"serving.dropped_batches", "count"},
	{"serving.max_queue_depth", "count"},
	{"wal.records", "count"},
	{"wal.disk_bytes", "bytes"},
	{"wal.bytes_per_user_byte", "ratio"},
	{"wal.open_ms", "ms"},
	{"wal.open_ms_crash", "ms"},
	{"cluster.join_ms", "ms"},
	{"cluster.discover_ms", "ms"},
	{"cluster.update_ms", "ms"},
	{"cluster.query_ms", "ms"},
	{"consensus.proposals", "count"},
	{"consensus.applied", "count"},
	{"consensus.noop_fills", "count"},
	{"replica.appends", "count"},
	{"replica.acks", "count"},
	{"replica.rewinds", "count"},
	{"replica.frontier_lag_max", "count"},
	{"load.generator_lag_p99_ms", "ms"},
	{"load.backlog_tuples", "count"},
	{"load.deliver_samples", "count"},
	{"trace.overhead_pct", "%"},
	{"trace.msgs_ratio", "ratio"},
}

// zeroLayer gives every per-layer metric its idle value.
func (r *result) zeroLayer() {
	for _, m := range perLayer {
		r.layer.set(m[0], 0, m[1])
	}
}

// setLayer sets a per-layer metric, taking the unit from perLayer.
func (r *result) setLayer(name string, v float64) {
	for _, m := range perLayer {
		if m[0] == name {
			r.layer.set(name, v, m[1])
			return
		}
	}
	panic("bench: undeclared per-layer metric " + name) // a typo in this package
}

// setE2E sets a gated end-to-end metric, taking the unit from endToEnd.
func (r *result) setE2E(name string, v float64) {
	for _, m := range endToEnd {
		if m[0] == name {
			r.e2e.set(name, v, m[1])
			return
		}
	}
	panic("bench: undeclared end-to-end metric " + name)
}

// peerLayer fills the peer, storage, runtime and traced-transport metrics
// shared by every workload. units is the work the traced phase completed
// (fix-points, cycles or seconds of load); st holds the peers' statistics
// over it; mem the allocation delta over it.
func (r *result) peerLayer(rec *recorder, units float64, st stats.Snapshot, mem *memDelta) {
	ls := rec.layer()
	per := func(v float64) float64 { return ratio(v, units) }
	var busy time.Duration
	for _, d := range ls.busy {
		busy += d
	}
	r.setLayer("peer.handle_busy_ms", per(ms(busy)))
	for _, k := range []string{"answer", "query", "answerAck", "answerBatch"} {
		r.setLayer("peer.handle_busy_ms."+k, per(ms(ls.busy[k])))
	}
	r.setLayer("peer.handle_p99_us", 1000*ls.handles.quantile(0.99))
	sent := float64(st.TotalSent())
	tuples := float64(st.TuplesInserted)
	r.setLayer("peer.msgs_sent", per(sent))
	r.setLayer("peer.msgs_per_tuple", ratio(sent, tuples))
	r.setLayer("peer.queries_executed", per(float64(st.QueriesExecuted)))
	r.setLayer("peer.dup_answer_share", ratio(float64(st.TuplesDuplicate), float64(st.MsgsReceived["answer"])))
	r.setLayer("peer.send_errors", float64(st.SendErrors))
	r.setLayer("storage.tuples_inserted", per(tuples))
	r.setLayer("storage.tuples_duplicate", per(float64(st.TuplesDuplicate)))
	allocBytes, allocs, pause := mem.finish()
	r.setLayer("runtime.alloc_bytes_per_tuple", ratio(float64(allocBytes), tuples))
	r.setLayer("runtime.allocs_per_tuple", ratio(float64(allocs), tuples))
	r.setLayer("runtime.gc_pause_ms", per(ms(pause)))
	r.setLayer("transport.frames", per(float64(ls.sends)))
	r.setLayer("transport.frames_per_tuple", ratio(float64(ls.sends), tuples))
	r.setLayer("transport.frame_wait_p50_ms", ls.waits.quantile(0.5))
	r.setLayer("transport.frame_wait_p99_ms", ls.waits.quantile(0.99))
}

// coreLayer sets the core call timings from the recorded spans (median per
// call).
func (r *result) coreLayer(rec *recorder) {
	for _, call := range []string{"build", "discover", "update", "quiesce", "reopen", "reconverge"} {
		r.setLayer("core."+call+"_ms", rec.durations("core."+call).quantile(0.5))
	}
}

// ruleEvalMS evaluates every rule body with cq over a snapshot of the final
// databases, as the rule's sources would answer it, and returns the total
// time.
func ruleEvalMS(def *rules.Network, snap map[string]*storage.DB) (float64, error) {
	t0 := time.Now()
	for _, rl := range def.Rules {
		for _, src := range rl.SourceNodes() {
			part, vars := rl.BodyPart(src)
			if _, err := cq.Eval(snap[src], part, vars); err != nil {
				return 0, fmt.Errorf("rule %s at %s: %w", rl.ID, src, err)
			}
		}
	}
	return ms(time.Since(t0)), nil
}

// localQueryMS times Node.Query at a node, median of five.
func localQueryMS(n *core.Node, body string, vars []string) (float64, error) {
	var s samples
	for i := 0; i < 5; i++ {
		t0 := time.Now()
		if _, err := n.Query(body, vars); err != nil {
			return 0, err
		}
		s.add(time.Since(t0))
	}
	return s.quantile(0.5), nil
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var total int64
	err := filepath.Walk(dir, func(_ string, fi os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		if fi.Mode().IsRegular() {
			total += fi.Size()
		}
		return nil
	})
	return total, err
}

// tupleCounts maps every hosted node to its database's tuple count.
func tupleCounts(n *core.Network) map[string]int {
	out := map[string]int{}
	for _, id := range n.Nodes() {
		out[id] = n.Peer(id).DB().TotalTuples()
	}
	return out
}

func sumCounts(c map[string]int) int {
	t := 0
	for _, v := range c {
		t += v
	}
	return t
}

func equalCounts(a, b map[string]int) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if b[k] != v {
			return false
		}
	}
	return true
}
