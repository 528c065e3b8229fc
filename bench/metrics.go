package main

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"strings"
	"time"
)

// samples is one timing distribution, in milliseconds.
type samples []float64

func (s *samples) add(d time.Duration) { *s = append(*s, float64(d)/float64(time.Millisecond)) }

// quantile reads the p-quantile (0..1) by the nearest-rank method. It returns
// 0 for an empty sample.
func (s samples) quantile(p float64) float64 {
	if len(s) == 0 {
		return 0
	}
	sorted := append(samples(nil), s...)
	sort.Float64s(sorted)
	return sorted[rankOf(len(sorted), p)]
}

// rankOf is the nearest-rank index of the p-quantile among n sorted values.
func rankOf(n int, p float64) int {
	i := int(math.Ceil(p*float64(n))) - 1
	if i < 0 {
		i = 0
	}
	if i >= n {
		i = n - 1
	}
	return i
}

// tailPercentiles are the candidates tail picks from, highest first. The
// ceiling is p99, the highest tail the report prints.
var tailPercentiles = []float64{99, 95, 90, 75, 50}

// tail reports the highest percentile of tailPercentiles that has at least
// ten samples beyond it, with its value. ok is false when even the median
// has fewer than ten samples beyond it (fewer than 21 samples).
func (s samples) tail() (pct, value float64, ok bool) {
	n := len(s)
	for _, p := range tailPercentiles {
		if beyond := n - 1 - rankOf(n, p/100); beyond >= 10 {
			return p, s.quantile(p / 100), true
		}
	}
	return 0, 0, false
}

// sum totals the samples.
func (s samples) sum() float64 {
	t := 0.0
	for _, v := range s {
		t += v
	}
	return t
}

// summary renders "p50 … pNN … (n=…)" for the human-readable report.
func (s samples) summary() string {
	if len(s) == 0 {
		return "no samples"
	}
	out := fmt.Sprintf("p50 %.3f", s.quantile(0.5))
	if p, v, ok := s.tail(); ok && p > 50 {
		out += fmt.Sprintf(" p%g %.3f", p, v)
	}
	return out + fmt.Sprintf(" ms (n=%d)", len(s))
}

// metric is one named measurement with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metrics is an ordered metric set.
type metrics struct {
	names  []string
	values map[string]metric
}

func newMetrics() *metrics { return &metrics{values: map[string]metric{}} }

func (m *metrics) set(name string, value float64, unit string) {
	if _, ok := m.values[name]; !ok {
		m.names = append(m.names, name)
	}
	m.values[name] = metric{Value: value, Unit: unit}
}

// result is what one workload run produced: the gated end-to-end metrics,
// the detailed metrics the report prints, the per-layer metrics of a
// traced run, and the operation ledger behind error_share.
type result struct {
	e2e    *metrics // end_to_end metrics of BENCHMARK.json
	report *metrics // detailed end-to-end metrics, printed for people
	layer  *metrics // per_layer metrics (traced runs)
	ops    ledger
	notes  []string
	// invalid lists the output checks that failed; any entry makes the
	// run incorrect.
	invalid []string
}

func newResult() *result {
	return &result{e2e: newMetrics(), report: newMetrics(), layer: newMetrics(), ops: ledger{}}
}

func (r *result) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// fail records a failed output check.
func (r *result) fail(format string, args ...any) {
	r.invalid = append(r.invalid, fmt.Sprintf(format, args...))
}

// ledger counts attempted and failed operations per class (insert, query,
// deliver, send, fixpoint, restart, …): error_share is failed ÷ attempted.
type ledger map[string]*[2]int

func (l ledger) attempt(class string, n int) { l.get(class)[0] += n }
func (l ledger) fail(class string, n int)    { l.get(class)[1] += n }

func (l ledger) get(class string) *[2]int {
	c := l[class]
	if c == nil {
		c = new([2]int)
		l[class] = c
	}
	return c
}

func (l ledger) totals() (attempted, failed int) {
	for _, c := range l {
		attempted += c[0]
		failed += c[1]
	}
	return attempted, failed
}

func (l ledger) String() string {
	var classes []string
	for c := range l {
		classes = append(classes, c)
	}
	sort.Strings(classes)
	var b strings.Builder
	for i, c := range classes {
		if i > 0 {
			b.WriteString(" ")
		}
		fmt.Fprintf(&b, "%s=%d/%d", c, l[c][1], l[c][0])
	}
	return b.String()
}

// memDelta is the runtime.MemStats change across a measured phase.
type memDelta struct {
	start, end runtime.MemStats
	stopped    bool
}

func startMem() *memDelta {
	m := &memDelta{}
	runtime.ReadMemStats(&m.start)
	return m
}

// stop ends the measured phase.
func (m *memDelta) stop() {
	runtime.ReadMemStats(&m.end)
	m.stopped = true
}

// finish reports the bytes and objects allocated and the GC pause time
// between start and stop (or now, when stop was not called).
func (m *memDelta) finish() (allocBytes, allocs uint64, gcPause time.Duration) {
	if !m.stopped {
		m.stop()
	}
	return m.end.TotalAlloc - m.start.TotalAlloc, m.end.Mallocs - m.start.Mallocs,
		time.Duration(m.end.PauseTotalNs - m.start.PauseTotalNs)
}

// liveHeapMB forces a collection and reports the live heap in MB.
func liveHeapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / 1e6
}

// ratio divides, reading 0 for a zero base.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
