package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// config is one run's settings. Sizes default to the benchmark's workloads;
// tests shrink them.
type config struct {
	seed    int64
	measure time.Duration // how long the measured phase runs
	trace   *recorder     // nil in an untraced run
	dataDir string        // scratch root for durable stores

	gridRecords int           // fixpoint: records per node of the 4x4 grid
	ringRecords int           // durable: records per node of ring(6)
	ringPairs   int           // durable: pub+wrote pairs the writer inserts per cycle
	cleanCycles int           // durable: clean restarts per cycle
	liveRate    int           // live: inserts per second at C
	queryRate   int           // live: coordinator queries per second at A
	watches     int           // live: remote watches on A:a(X,T)
	liveSeed    int           // live: c tuples seeded before the baseline update
	setups      int           // live: cluster boots per run (the last one is measured)
	warmup      time.Duration // live: load before the measured schedule
}

func defaultConfig() config {
	return config{
		gridRecords: 1000,
		ringRecords: 500,
		ringPairs:   1000,
		cleanCycles: 8,
		liveRate:    200,
		queryRate:   20,
		watches:     64,
		liveSeed:    200,
		setups:      3,
		warmup:      2 * time.Second,
	}
}

// runner runs one measured phase and fills a result.
type runner func(ctx context.Context, cfg config, res *result) error

var workloads = map[string]runner{
	"fixpoint": runFixpoint,
	"live":     runLive,
	"durable":  runDurable,
}

func main() {
	name := flag.String("workload", "", "workload to run: fixpoint, live, durable, or all three in turn")
	seed := flag.Int64("seed", 1, "workload seed: the same seed generates the same inputs")
	seconds := flag.Int("seconds", 30, "length of the measured phase in seconds")
	traced := flag.Int("trace", 0, "1 = traced run printing the per-layer metrics, 0 = untraced run printing the end-to-end metrics")
	out := flag.String("out", "", "directory for scratch data and span files (default: the system temp dir, no span file)")
	flag.Parse()
	if err := run(*name, *seed, *seconds, *traced, *out); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// workloadOrder is the order "all" runs the workloads in.
var workloadOrder = []string{"fixpoint", "live", "durable"}

func run(name string, seed int64, seconds, traced int, out string) error {
	names := []string{name}
	if name == "all" {
		names = workloadOrder
	} else if _, ok := workloads[name]; !ok {
		return fmt.Errorf("unknown workload %q (want fixpoint, live, durable or all)", name)
	}
	if seconds < 1 || (traced != 0 && traced != 1) {
		return fmt.Errorf("-seconds must be positive and -trace 0 or 1")
	}
	cfg := defaultConfig()
	cfg.seed = seed
	cfg.measure = time.Duration(seconds) * time.Second
	for _, name := range names {
		res, err := measure(name, workloads[name], cfg, traced == 1, out)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		printResult(os.Stdout, name, res, traced == 1)
		if len(res.invalid) > 0 {
			return fmt.Errorf("%s: %d output check(s) failed", name, len(res.invalid))
		}
	}
	return nil
}

// measure runs the workload. A traced run measures an untraced half first
// and a traced half second, so the trace's overhead and its effect on the
// fix-point are checked within the run.
func measure(name string, wl runner, cfg config, traced bool, out string) (*result, error) {
	tmp, err := os.MkdirTemp(out, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)
	cfg.dataDir = tmp
	// A wedged cluster or fix-point fails the run instead of hanging it.
	ctx, cancel := context.WithTimeout(context.Background(), cfg.measure+2*time.Minute)
	defer cancel()
	if !traced {
		res := newResult()
		return res, wl(ctx, cfg, res)
	}
	// Each half gets its own data directories: a live cluster rebooted on
	// the first half's stores would recover its inserts and ship nothing.
	half := cfg
	half.measure = cfg.measure / 2
	half.dataDir = filepath.Join(tmp, "untraced")
	base := newResult()
	base.zeroLayer()
	if err := wl(ctx, half, base); err != nil {
		return nil, fmt.Errorf("untraced half: %w", err)
	}
	half.trace = newRecorder(cfg.seed)
	half.dataDir = filepath.Join(tmp, "traced")
	res := newResult()
	res.zeroLayer()
	if err := wl(ctx, half, res); err != nil {
		return nil, fmt.Errorf("traced half: %w", err)
	}
	if err := compareTraced(name, base, res); err != nil {
		return nil, err
	}
	res.invalid = append(base.invalid, res.invalid...)
	if out != "" {
		path := filepath.Join(out, fmt.Sprintf("spans-%s-seed%d.tsv", name, cfg.seed))
		if err := half.trace.writeSpans(path); err != nil {
			return nil, fmt.Errorf("write spans: %w", err)
		}
		res.note("spans written to %s", path)
	}
	return res, nil
}

// compareTraced checks that tracing did not change what the system computed
// and reports its overhead on the headline latency.
func compareTraced(name string, base, traced *result) error {
	b, t := base.report.values, traced.report.values
	if bf, tf := b["final_tuples"].Value, t["final_tuples"].Value; bf != tf {
		return fmt.Errorf("traced run ended with %g tuples, untraced %g", tf, bf)
	}
	r := ratio(t["msgs_per_unit"].Value, b["msgs_per_unit"].Value)
	traced.setLayer("trace.msgs_ratio", r)
	// Message counts of an asynchronous fix-point vary by some 10% between
	// identical runs; a wrapper that lost or duplicated traffic moves them
	// far more. (Restart re-shipping makes the durable counts too variable
	// to gate, and the live counts follow the fixed load.)
	if name == "fixpoint" && (r < 0.75 || r > 1.33) {
		return fmt.Errorf("traced run sent %.4g times the untraced run's messages per fix-point", r)
	}
	bo, to := base.e2e.values["op_p50_ms"].Value, traced.e2e.values["op_p50_ms"].Value
	traced.setLayer("trace.overhead_pct", 100*(ratio(to, bo)-1))
	return nil
}

// printResult writes the human-readable report, then the result line: one
// JSON object with the end-to-end metrics (untraced) or the per-layer
// metrics (traced).
func printResult(w *os.File, name string, res *result, traced bool) {
	attempted, failed := res.ops.totals()
	fmt.Fprintf(w, "workload %s: operations failed/attempted %s (error_share %.4g)\n",
		name, res.ops, ratio(float64(failed), float64(attempted)))
	for _, n := range res.report.names {
		m := res.report.values[n]
		fmt.Fprintf(w, "  %-28s %14.4f %s\n", n, m.Value, m.Unit)
	}
	for _, n := range res.notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
	for _, n := range res.invalid {
		fmt.Fprintf(w, "  CHECK FAILED: %s\n", n)
	}
	set := res.e2e
	if traced {
		set = res.layer
	}
	out := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{len(res.invalid) == 0, attempted, failed, set.values}
	data, _ := json.Marshal(out) // plain floats, strings and ints: cannot fail
	fmt.Fprintln(w, string(data))
}
