package main

import (
	"context"
	"encoding/json"
	"os"
	"testing"
	"time"

	"repro/internal/transport"
	"repro/internal/wire"
)

func TestTail(t *testing.T) {
	seq := func(n int) samples {
		s := make(samples, n)
		for i := range s {
			s[i] = float64(i + 1)
		}
		return s
	}
	for _, c := range []struct {
		n        int
		pct, val float64
		ok       bool
	}{
		{1000, 99, 990, true}, // rank 990 of 1000: exactly ten beyond
		{999, 95, 950, true},  // nine beyond p99, so p95
		{200, 95, 190, true},
		{199, 90, 180, true},
		{40, 75, 30, true},
		{21, 50, 11, true},
		{20, 50, 10, true},
		{19, 0, 0, false},
	} {
		pct, val, ok := seq(c.n).tail()
		if pct != c.pct || val != c.val || ok != c.ok {
			t.Errorf("n=%d: tail = p%g %g %v, want p%g %g %v", c.n, pct, val, ok, c.pct, c.val, c.ok)
		}
	}
	if got := seq(10).quantile(0.5); got != 5 {
		t.Errorf("median of 1..10 = %g, want 5 (nearest rank)", got)
	}
}

// base is a transport with no capabilities beyond the interface.
type base struct{}

func (base) Register(string, transport.Handler) error { return nil }
func (base) Send(string, string, wire.Message) error  { return nil }
func (base) Close() error                             { return nil }

func capabilities(tr transport.Transport) [4]bool {
	_, q := tr.(transport.Quiescer)
	_, s := tr.(transport.Stepper)
	_, w := tr.(transport.WorkTracker)
	_, f := tr.(transport.FaultInjector)
	return [4]bool{q, s, w, f}
}

func TestTraceTransportCapabilities(t *testing.T) {
	type (
		Q = transport.Quiescer
		S = transport.Stepper
		W = transport.WorkTracker
		F = transport.FaultInjector
	)
	tcp, err := transport.NewTCP("127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer tcp.Close()
	mem := transport.NewMem(transport.MemOptions{})
	defer mem.Close()
	for name, inner := range map[string]transport.Transport{
		"mem":  mem,
		"tcp":  tcp,
		"none": base{},
		"Q": struct {
			base
			Q
		}{},
		"S": struct {
			base
			S
		}{},
		"W": struct {
			base
			W
		}{},
		"F": struct {
			base
			F
		}{},
		"QW": struct {
			base
			Q
			W
		}{},
		"SF": struct {
			base
			S
			F
		}{},
		"QSF": struct {
			base
			Q
			S
			F
		}{},
		"SWF": struct {
			base
			S
			W
			F
		}{},
	} {
		got, want := capabilities(traceTransport(inner, newRecorder(1), false)), capabilities(inner)
		if got != want {
			t.Errorf("%s: wrapper capabilities (Q,S,W,F) = %v, inner has %v", name, got, want)
		}
	}
}

func TestTraceTransportForwards(t *testing.T) {
	mem := transport.NewMem(transport.MemOptions{})
	rec := newRecorder(1)
	tr := traceTransport(mem, rec, true)
	defer tr.Close()
	got := make(chan wire.Envelope, 2)
	for _, node := range []string{"A", "B"} {
		if err := tr.Register(node, func(env wire.Envelope) { got <- env }); err != nil {
			t.Fatal(err)
		}
	}
	sp := rec.begin("phase", "")
	if err := tr.Send("A", "B", wire.StatsRequest{}); err != nil {
		t.Fatal(err)
	}
	// The oracle is the Mem router's, reached through the wrapper.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := tr.(transport.Quiescer).WaitQuiescent(ctx); err != nil {
		t.Fatal(err)
	}
	sp.end()
	if env := <-got; env.From != "A" || env.To != "B" {
		t.Fatalf("delivered %+v", env)
	}
	ls := rec.layer()
	if ls.sends != 1 || len(ls.waits) != 1 || len(ls.handles) != 1 || ls.busy["statsRequest"] <= 0 {
		t.Fatalf("layer stats = %+v", ls)
	}
	// phase → transport.send → peer.handle.statsRequest
	parent := map[string]uint64{}
	ids := map[string]uint64{}
	for _, s := range rec.spans {
		parent[s.name], ids[s.name] = s.parent, s.id
	}
	if parent["transport.send"] != ids["phase"] || parent["peer.handle.statsRequest"] != ids["transport.send"] {
		t.Fatalf("span parents = %v, ids = %v", parent, ids)
	}
	if expansion, _, _, err := rec.wireReplay(); err != nil || expansion <= 0 {
		t.Fatalf("wire replay: %g encoded bytes per payload byte, %v", expansion, err)
	}
}

func TestSelfTimes(t *testing.T) {
	ms := time.Millisecond
	spans := []span{
		{id: 1, name: "phase", start: 0, end: 100 * ms},
		{id: 2, parent: 1, name: "call", start: 10 * ms, end: 40 * ms},
		{id: 3, parent: 1, name: "call", start: 30 * ms, end: 60 * ms},
		{id: 4, parent: 1, name: "late", start: 90 * ms, end: 120 * ms}, // clipped to the parent
	}
	got := selfTimes(spans)
	if got["phase"] != [2]time.Duration{100 * ms, 40 * ms} {
		t.Errorf("phase total/self = %v, want 100ms/40ms", got["phase"])
	}
	if got["call"] != [2]time.Duration{60 * ms, 60 * ms} {
		t.Errorf("call total/self = %v, want 60ms/60ms", got["call"])
	}
}

// tinyConfig shrinks every workload to a few seconds.
func tinyConfig() config {
	cfg := defaultConfig()
	cfg.seed = 7
	cfg.measure = 2 * time.Second
	cfg.gridRecords = 20
	cfg.ringRecords = 20
	cfg.ringPairs = 20
	cfg.cleanCycles = 1
	cfg.liveRate = 50
	cfg.queryRate = 10
	cfg.watches = 4
	cfg.liveSeed = 10
	cfg.setups = 1
	cfg.warmup = 200 * time.Millisecond
	return cfg
}

// TestWorkloadsSmoke runs every workload at a tiny size, untraced and
// traced, and checks the outputs validated and every metric was emitted
// with its unit.
func TestWorkloadsSmoke(t *testing.T) {
	for name, wl := range workloads {
		for _, traced := range []bool{false, true} {
			res, err := measure(name, wl, tinyConfig(), traced, t.TempDir())
			if err != nil {
				t.Fatalf("%s traced=%v: %v", name, traced, err)
			}
			if len(res.invalid) > 0 {
				t.Fatalf("%s traced=%v: checks failed: %v", name, traced, res.invalid)
			}
			if attempted, failed := res.ops.totals(); attempted == 0 || failed != 0 {
				t.Errorf("%s traced=%v: %d of %d operations failed", name, traced, failed, attempted)
			}
			want, set := endToEnd, res.e2e
			if traced {
				want, set = perLayer, res.layer
			}
			if len(set.values) != len(want) {
				t.Errorf("%s traced=%v: %d metrics, want %d", name, traced, len(set.values), len(want))
			}
			for _, m := range want {
				got, ok := set.values[m[0]]
				if !ok || got.Unit != m[1] {
					t.Errorf("%s traced=%v: metric %s = %+v (present %v), want unit %s", name, traced, m[0], got, ok, m[1])
				}
				if !traced && got.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %g, want > 0", name, m[0], got.Value)
				}
			}
		}
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json's metric lists in step with the
// program's.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []struct{ Name, Unit string }, want [][2]string) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the program %d", kind, len(got), len(want))
			return
		}
		for i, m := range want {
			if got[i].Name != m[0] || got[i].Unit != m[1] {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), the program %s (%s)", kind, i, got[i].Name, got[i].Unit, m[0], m[1])
			}
		}
	}
	check("end_to_end", b.EndToEnd, endToEnd)
	check("per_layer", b.PerLayer, perLayer)
}
