// Command bench is jobgraph's end-to-end benchmark. It drives the system
// only through its public package functions, generates every input from
// a seed, checks every output, and reports end-to-end metrics or, with
// tracing on, per-layer ones.
//
// Run from the repository root; run.sh builds the benchmark from source
// under .bench_build/ and runs it. One workload in this process, ending
// with a one-line JSON result on standard output:
//
//	bash bench/run.sh --workload ingest-csv --seed 1 --seconds 20 --trace 0
//
// Whole sets, each workload in fresh processes, the second set compared
// with the first against every metric's bound in BENCHMARK.json:
//
//	bash bench/run.sh -sets 2
//
// README.md describes the workloads, the metrics and their bounds.
package main

import (
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime/debug"
	"strconv"
	"time"
)

// sizes are the workloads' input sizes and load levels.
type sizes struct {
	csvJobs      int     // ingest-csv: jobs in the batch_task table
	csvSample    int     // ingest-csv: jobs analysed (the paper's 100)
	clusterJobs  int     // cluster: jobs generated in memory
	clusterN     int     // cluster: jobs analysed, the kernel matrix order
	trainJobs    int     // serve: jobs the model is trained on, as jobgraphd -gen
	trainSample  int     // serve: jobs analysed for the model
	heldJobs     int     // serve: held-out jobs generated; about half are DAG jobs
	queries      int     // serve-mixed: indexed jobs GET /v1/similar asks about
	replayJobs   int     // serve traced run: held-out jobs replayed step by step
	classifyRate float64 // serve-classify: open-loop requests per second
	mixedRate    float64 // serve-mixed: open-loop requests per second
	// Closed-loop requests per second measured when these sizes were
	// chosen (README.md, Sizing); they size the fixed-count closed-loop
	// windows.
	classifyCapacity float64
	mixedCapacity    float64
	getShare         float64 // serve-mixed: share of requests that are GETs
	clients          int     // serve: requests outstanding in the closed loop
}

// fullSizes are the sizes the benchmark runs at; README.md records how
// they were measured and chosen.
var fullSizes = sizes{
	csvJobs:          112_000,
	csvSample:        100,
	clusterJobs:      20_000,
	clusterN:         300,
	trainJobs:        10_000,
	trainSample:      100,
	heldJobs:         35_000,
	queries:          2_000,
	replayJobs:       2_000,
	classifyRate:     5_000,
	mixedRate:        500,
	classifyCapacity: 23_000,
	mixedCapacity:    1_600,
	getShare:         0.8,
	clients:          256,
}

// instance is a workload after set-up.
type instance interface {
	// measure runs the timed phase for d, checks every output, and
	// records the end-to-end metrics; a failed op is recorded, not
	// returned.
	measure(r *run, d time.Duration)
	// traceOp repeats the workload's op one layer call at a time under
	// t's spans and records the per-layer metrics.
	traceOp(r *run, t *tracer) error
	close() error
}

// workload is one set of inputs and the load driven through them.
// BENCHMARK.json says why each was chosen.
type workload struct {
	name  string
	setup func(dir string, seed int64, sz sizes) (instance, error)
}

var workloads = []workload{
	{"ingest-csv", func(dir string, seed int64, sz sizes) (instance, error) {
		return asInstance(setupIngest(dir, seed, sz))
	}},
	{"cluster-n300", func(dir string, seed int64, sz sizes) (instance, error) {
		return asInstance(setupCluster(dir, seed, sz))
	}},
	{"serve-classify", func(dir string, seed int64, sz sizes) (instance, error) {
		return asInstance(setupServe(dir, seed, sz, false))
	}},
	{"serve-mixed", func(dir string, seed int64, sz sizes) (instance, error) {
		return asInstance(setupServe(dir, seed, sz, true))
	}},
}

// asInstance keeps a failed set-up's nil pointer from becoming a non-nil
// interface.
func asInstance[T instance](v T, err error) (instance, error) {
	if err != nil {
		return nil, err
	}
	return v, nil
}

// digestsJSON holds the committed analysis digests of the batch
// workloads at full size, by workload and seed.
//
//go:embed digests.json
var digestsJSON []byte

// committedDigest is the digest digests.json commits for the workload
// at seed, or "" when it commits none.
func committedDigest(name string, seed int64) (string, error) {
	var committed map[string]map[string]string
	if err := json.Unmarshal(digestsJSON, &committed); err != nil {
		return "", fmt.Errorf("bench: digests.json: %w", err)
	}
	return committed[name][strconv.FormatInt(seed, 10)], nil
}

func lookup(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("bench: unknown workload %q", name)
}

// setups is how many times a run sets its workload up; setup_s is the
// median.
const setups = 3

// scratchRoot holds each run's generated files; run.sh builds into it
// too. It is relative to the working directory, the repository root.
const scratchRoot = ".bench_build"

func main() {
	var (
		name     = flag.String("workload", "", "run this workload in this process and print its JSON result line (empty: run whole sets)")
		seed     = flag.Int64("seed", 1, "seed every input is generated from")
		seconds  = flag.Int("seconds", 20, "seconds each run measures")
		traced   = flag.Int("trace", 0, "1: add the traced run and report per-layer metrics instead of end-to-end ones")
		traceOut = flag.String("trace-out", "", "with -workload and -trace 1: write the traced run's spans to this Perfetto (Chrome trace_event) file")
		sets     = flag.Int("sets", 1, "without -workload: whole sets to run; with 2 or more, each set is compared with the first")
	)
	flag.Parse()
	if *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(os.Stderr, "bench: -seconds must be positive and -trace 0 or 1")
		os.Exit(2)
	}
	var err error
	if *name == "" {
		err = runSets(*sets, *seed, *seconds)
	} else {
		err = runOne(config{
			workload: *name,
			seed:     *seed,
			d:        time.Duration(*seconds) * time.Second,
			sizes:    fullSizes,
			traced:   *traced == 1,
			traceOut: *traceOut,
			scratch:  scratchRoot,
		})
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// config is one run's settings.
type config struct {
	workload string
	seed     int64
	d        time.Duration // how long the run measures
	sizes    sizes
	traced   bool
	traceOut string // Perfetto file for the traced run's spans; "" for none
	scratch  string // directory the run's generated files go under
}

// runOne runs one workload in this process and prints its result line.
func runOne(c config) error {
	h := hostInfo(c.seed)
	fmt.Fprintf(os.Stderr, "jobgraph bench: workload=%s seconds=%g trace=%t\nhost: %s\n",
		c.workload, c.d.Seconds(), c.traced, h)
	r, err := execute(c, h)
	if err != nil {
		return err
	}
	defs := endToEnd
	if c.traced {
		defs = perLayer
	}
	r.report(os.Stderr, defs)
	res, err := r.result(defs, !c.traced)
	if err != nil {
		return err
	}
	line, err := json.Marshal(res)
	if err != nil {
		return fmt.Errorf("bench: encoding result: %w", err)
	}
	fmt.Println(string(line))
	return nil
}

// execute sets the workload up setups times, measures the last set-up,
// and with c.traced runs the traced op after.
func execute(c config, h host) (*run, error) {
	w, err := lookup(c.workload)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(c.scratch, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(c.scratch, c.workload+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	r := newRun()
	inst, err := setUp(w, dir, c.seed, c.sizes, r)
	if err != nil {
		return nil, err
	}
	if b, ok := inst.(*batch); ok && c.sizes == fullSizes {
		if b.want, err = committedDigest(c.workload, c.seed); err != nil {
			inst.close()
			return nil, err
		}
	}
	err = measureAndTrace(inst, r, c, h)
	if cerr := inst.close(); err == nil {
		err = cerr
	}
	return r, err
}

// setUp runs the workload's set-up setups times, keeps the last instance
// and records the median set-up time.
func setUp(w workload, dir string, seed int64, sz sizes, r *run) (instance, error) {
	var (
		times []time.Duration
		inst  instance
	)
	for i := 0; i < setups; i++ {
		if inst != nil {
			if err := inst.close(); err != nil {
				return nil, err
			}
			debug.FreeOSMemory()
		}
		sub := filepath.Join(dir, fmt.Sprintf("setup%d", i))
		if err := os.MkdirAll(sub, 0o755); err != nil {
			return nil, err
		}
		start := time.Now()
		next, err := w.setup(sub, seed, sz)
		if err != nil {
			return nil, fmt.Errorf("bench: %s set-up: %w", w.name, err)
		}
		times = append(times, time.Since(start))
		inst = next
	}
	r.set("setup_s", medianMs(times)/1000, len(times))
	fmt.Fprintf(os.Stderr, "set-up: %v\n", times)
	return inst, nil
}

func measureAndTrace(inst instance, r *run, c config, h host) error {
	inst.measure(r, c.d)
	rss, err := peakRSSMB()
	if err != nil {
		return err
	}
	r.set("peak_rss_mb", rss, 1)
	if !c.traced {
		return nil
	}
	debug.FreeOSMemory() // as before each measured op
	t := newTracer(c.workload)
	err = inst.traceOp(r, t)
	t.end()
	if err != nil {
		return fmt.Errorf("bench: %s traced run: %w", c.workload, err)
	}
	if c.traceOut == "" {
		return nil
	}
	if err := t.export(c.traceOut, h); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "trace: %s\n", c.traceOut)
	return nil
}
