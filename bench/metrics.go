package main

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"jobgraph/internal/stats"
)

// metricDef names one reported metric and its unit. BENCHMARK.json
// declares the same names and units (the self-test holds the two equal)
// and adds each end-to-end metric's bound.
type metricDef struct {
	name, unit string
}

// endToEnd are the metrics a user of the system sees; a --trace 0 run
// reports all of them. An op is one analysis (batch workloads) or one
// HTTP request (serve workloads).
var endToEnd = []metricDef{
	// Median of three set-ups in one process: input generation, CSV
	// write, model training, index build, server boot.
	{"setup_s", "s"},
	// Batch: wall time per analysis. Serve: open-loop request latency,
	// timed from each request's scheduled send time. The tail is the
	// highest percentile the sample supports (see tail).
	{"latency_p50_ms", "ms"},
	{"latency_tail_ms", "ms"},
	// Batch: analyses per second, from the median analysis. Serve:
	// successful responses per second with a fixed number of requests
	// outstanding.
	{"throughput_per_s", "1/s"},
	// Peak resident set (VmHWM) of the workload process.
	{"peak_rss_mb", "MB"},
	// Bytes allocated per measured op (runtime TotalAlloc delta).
	{"alloc_kb_per_op", "KB"},
}

// perLayer are the traced run's metrics, named after the repository's
// modules; a --trace 1 run reports all of them. A layer the workload
// does not exercise reports 0. README.md maps each to the end-to-end
// metric it should move.
var perLayer = []metricDef{
	{"trace.decode_ms", "ms"},
	{"trace.decode_mb_per_s", "MB/s"},
	{"trace.rows", "count"},
	{"trace.group_ms", "ms"},
	{"trace.jobs", "count"},
	{"sampling.filter_ms", "ms"},
	{"sampling.keep_ratio", "fraction"},
	{"sampling.sample_ms", "ms"},
	{"dag.jobs_ms", "ms"},
	{"dag.build_us_p50", "us"},
	{"wl.features_ms", "ms"},
	{"wl.labels", "count"},
	{"wl.matrix_ms", "ms"},
	{"wl.pairs", "count"},
	{"wl.embed_us_p50", "us"},
	{"wl.ann_query_us_p50", "us"},
	{"wl.ann_query_us_p99", "us"},
	{"wl.ann_candidates_mean", "count"},
	{"wl.ann_useful_ratio", "fraction"},
	{"wl.ann_recall_at_10", "fraction"},
	{"linalg.dense_ms", "ms"},
	{"linalg.dense_calls", "count"},
	{"linalg.eigen_sweeps", "count"},
	{"cluster.spectral_ms", "ms"},
	{"cluster.silhouette_ms", "ms"},
	{"core.classify_us_p50", "us"},
	{"core.classify_us_p99", "us"},
	{"serve.classify_p50_ms", "ms"},
	{"serve.classify_p99_ms", "ms"},
	{"serve.similar_p50_ms", "ms"},
	{"serve.similar_p99_ms", "ms"},
	{"serve.json_decode_us_p50", "us"},
	{"serve.journal_append_us_p50", "us"},
	{"serve.journal_sync_ms_p50", "ms"},
	{"serve.journal_sync_ms_p99", "ms"},
	{"serve.journal_bytes_per_job", "bytes"},
	{"runtime.gc_cycles_per_op", "count"},
	{"runtime.gc_pause_ms_per_op", "ms"},
	{"process.cpu_ms_per_op", "ms"},
	{"bench.unattributed_pct", "%"},
	{"bench.gen_lag_p99_ms", "ms"},
	{"bench.open.sent", "count"},
	{"bench.open.ok", "count"},
	{"bench.open.failed", "count"},
	{"bench.closed.sent", "count"},
	{"bench.closed.ok", "count"},
	{"bench.closed.failed", "count"},
}

// sample is one metric's value and the number of observations behind it.
type sample struct {
	value float64
	n     int
}

// run accumulates one workload run: its metrics, its op tally and the
// verdicts of its correctness checks.
type run struct {
	metrics   map[string]sample
	attempted int64
	failed    int64
	problems  []string
}

func newRun() *run { return &run{metrics: make(map[string]sample)} }

func (r *run) set(name string, value float64, n int) {
	r.metrics[name] = sample{value, n}
}

// fail records a failed correctness check; ops counts the ops it fails.
func (r *run) fail(ops int64, format string, args ...any) {
	r.failed += ops
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// metric is one entry of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object a run prints as its last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// result selects defs from the run. An end-to-end metric the workload
// failed to set is a bug in the benchmark; an unset per-layer metric is
// a layer the workload does not exercise and reports 0.
func (r *run) result(defs []metricDef, required bool) (result, error) {
	failed := r.failed
	if failed > r.attempted {
		failed = r.attempted
	}
	res := result{
		Correct:   len(r.problems) == 0,
		Attempted: r.attempted,
		Failed:    failed,
		Metrics:   make(map[string]metric, len(defs)),
	}
	for _, d := range defs {
		s, ok := r.metrics[d.name]
		if !ok && required {
			return res, fmt.Errorf("bench: metric %s was not measured", d.name)
		}
		v := s.value
		if math.IsInf(v, 1) || math.IsNaN(v) {
			// A percentile that lands on a failed op is infinite; JSON has
			// no infinity, so it reads as the worst finite value.
			v = math.MaxFloat64
		}
		res.Metrics[d.name] = metric{Value: v, Unit: d.unit}
	}
	return res, nil
}

// pct is the q-quantile of xs (type 7, as internal/stats computes it).
// xs may hold +Inf for failed ops; 0 for an empty sample.
func pct(xs []float64, q float64) float64 {
	v, err := stats.Quantile(xs, q)
	if err != nil {
		return 0
	}
	if math.IsNaN(v) { // Inf·0 in the interpolation: the rank is a failed op
		return math.Inf(1)
	}
	return v
}

// tail is the highest of p99, p90 and p50 of xs with at least ten
// samples beyond it: the highest percentile the sample supports.
func tail(xs []float64) float64 {
	for _, q := range []float64{0.99, 0.9} {
		if (1-q)*float64(len(xs)) >= 10 {
			return pct(xs, q)
		}
	}
	return pct(xs, 0.5)
}

// median of durations, in milliseconds.
func medianMs(ds []time.Duration) float64 {
	return pct(msOf(ds), 0.5)
}

func msOf(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Millisecond)
	}
	return out
}

func usOf(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Microsecond)
	}
	return out
}

// usage is a snapshot of the process's resource counters.
type usage struct {
	alloc   uint64 // bytes allocated since start
	gcs     uint32
	pauseNs uint64
	cpu     time.Duration // user + system
}

func readUsage() usage {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	u := usage{alloc: ms.TotalAlloc, gcs: ms.NumGC, pauseNs: ms.PauseTotalNs}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		u.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	return u
}

// plus adds the usage between from and to.
func (u usage) plus(from, to usage) usage {
	return usage{
		alloc:   u.alloc + to.alloc - from.alloc,
		gcs:     u.gcs + to.gcs - from.gcs,
		pauseNs: u.pauseNs + to.pauseNs - from.pauseNs,
		cpu:     u.cpu + to.cpu - from.cpu,
	}
}

// recordUsage sets the per-op resource metrics from the usage of ops
// measured ops.
func (r *run) recordUsage(used usage, ops int) {
	if ops <= 0 {
		return
	}
	n := float64(ops)
	r.set("alloc_kb_per_op", float64(used.alloc)/1024/n, ops)
	r.set("runtime.gc_cycles_per_op", float64(used.gcs)/n, ops)
	r.set("runtime.gc_pause_ms_per_op", float64(used.pauseNs)/1e6/n, ops)
	r.set("process.cpu_ms_per_op", float64(used.cpu)/float64(time.Millisecond)/n, ops)
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MiB.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("bench: peak RSS: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			break
		}
		kb, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			return 0, fmt.Errorf("bench: peak RSS: %w", err)
		}
		return kb / 1024, nil
	}
	return 0, fmt.Errorf("bench: peak RSS: no VmHWM in /proc/self/status")
}

// report prints the run's metrics with units and sample counts, and its
// correctness verdict, for a human reader.
func (r *run) report(w io.Writer, defs []metricDef) {
	fmt.Fprintf(w, "%-30s %14s %-9s %s\n", "metric", "value", "unit", "samples")
	for _, d := range defs {
		s := r.metrics[d.name]
		fmt.Fprintf(w, "%-30s %14.4f %-9s %d\n", d.name, s.value, d.unit, s.n)
	}
	if len(r.problems) == 0 {
		fmt.Fprintf(w, "correctness: ok (%d ops checked)\n", r.attempted)
		return
	}
	sort.Strings(r.problems)
	fmt.Fprintf(w, "correctness: FAILED (%d of %d ops)\n", min(r.failed, r.attempted), r.attempted)
	for _, p := range r.problems {
		fmt.Fprintf(w, "  %s\n", p)
	}
}
