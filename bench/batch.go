package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash"
	"math"
	"os"
	"path/filepath"
	"runtime/debug"
	"sort"
	"time"

	"jobgraph/internal/cli"
	"jobgraph/internal/cluster"
	"jobgraph/internal/core"
	"jobgraph/internal/linalg"
	"jobgraph/internal/obs"
	"jobgraph/internal/pattern"
	"jobgraph/internal/sampling"
	"jobgraph/internal/taskname"
	"jobgraph/internal/trace"
	"jobgraph/internal/tracegen"
	"jobgraph/internal/wl"
)

// minBatchOps is the fewest measured analyses a run takes, however
// short --seconds is, so its median is a median.
const minBatchOps = 3

// batch is an analysis workload: one op is a core.Run with the paper
// configuration over the workload's jobs, read from a CSV table on disk
// (ingest-csv, the `reproduce -trace` path) or held in memory (cluster).
type batch struct {
	cfg   core.Config
	table string      // the batch_task CSV; empty for in-memory jobs
	bytes int64       // size of table
	jobs  []trace.Job // in-memory jobs
	want  string      // committed analysis digest for this seed, if any

	// Set by measure for the traced run.
	last     *core.Analysis
	medianMs float64
}

func analysisConfig(seed int64, n int) core.Config {
	cfg := core.DefaultConfig(cli.TraceWindow(), seed)
	cfg.SampleSize = n
	return cfg
}

// setupIngest writes a tracegen batch_task table of sz.csvJobs jobs.
func setupIngest(dir string, seed int64, sz sizes) (*batch, error) {
	recs, err := tracegen.Generate(tracegen.DefaultConfig(sz.csvJobs, seed))
	if err != nil {
		return nil, err
	}
	path := filepath.Join(dir, "batch_task.csv")
	if err := writeTable(path, recs); err != nil {
		return nil, err
	}
	st, err := os.Stat(path)
	if err != nil {
		return nil, err
	}
	return &batch{cfg: analysisConfig(seed, sz.csvSample), table: path, bytes: st.Size()}, nil
}

// setupCluster generates sz.clusterJobs jobs in memory: no CSV, so the
// op is the analysis alone and its kernel matrix is sz.clusterN square.
func setupCluster(dir string, seed int64, sz sizes) (*batch, error) {
	jobs, err := tracegen.GenerateJobs(tracegen.DefaultConfig(sz.clusterJobs, seed))
	if err != nil {
		return nil, err
	}
	return &batch{cfg: analysisConfig(seed, sz.clusterN), jobs: jobs}, nil
}

func writeTable(path string, recs []trace.TaskRecord) error {
	w, err := trace.CreateTable(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriterSize(w, 1<<20)
	if err := trace.WriteTasks(bw, recs); err != nil {
		w.Close()
		return err
	}
	if err := bw.Flush(); err != nil {
		w.Close()
		return fmt.Errorf("bench: write %s: %w", path, err)
	}
	return w.Close()
}

// op runs one analysis, reading the table first when there is one.
func (b *batch) op() (*core.Analysis, error) {
	if b.table == "" {
		return core.Run(b.jobs, b.cfg)
	}
	cfg := b.cfg
	cfg.Arena = taskname.NewArena()
	f, err := trace.OpenTable(b.table)
	if err != nil {
		return nil, err
	}
	jobs, stats, err := trace.ReadJobsOpts(f, trace.ReadOptions{Arena: cfg.Arena})
	f.Close()
	if err != nil {
		return nil, err
	}
	cfg.Ingest = &stats
	return core.Run(jobs, cfg)
}

// measure runs one warm-up analysis, then analyses back to back for d.
// Memory is returned to the OS before each op, so the peak resident set
// is one analysis's, not the sum of GC debt.
func (b *batch) measure(r *run, d time.Duration) {
	var (
		lat     []float64
		used    usage
		digests = map[string]int{}
	)
	// one runs an analysis, checks it, and returns its milliseconds
	// (+Inf when it failed).
	one := func() float64 {
		debug.FreeOSMemory()
		u0 := readUsage()
		start := time.Now()
		an, err := b.op()
		took := time.Since(start)
		used = used.plus(u0, readUsage())
		r.attempted++
		if err != nil {
			r.fail(1, "analysis failed: %v", err)
			return math.Inf(1)
		}
		digests[analysisDigest(an)]++
		b.last = an
		return float64(took) / float64(time.Millisecond)
	}

	one() // warm-up: checked, not timed
	used = usage{}
	for start := time.Now(); len(lat) < minBatchOps || time.Since(start) < d; {
		lat = append(lat, one())
	}
	measured := len(lat)

	fmt.Fprintf(os.Stderr, "op ms: %.4g\n", lat)
	b.medianMs = pct(lat, 0.5)
	r.set("latency_p50_ms", b.medianMs, len(lat))
	r.set("latency_tail_ms", tail(lat), len(lat))
	// From the median, not the mean, so one analysis the host stalls
	// does not move it.
	r.set("throughput_per_s", 1000/b.medianMs, measured)
	r.recordUsage(used, measured)
	ok := countFinite(lat)
	r.set("bench.closed.sent", float64(measured), measured)
	r.set("bench.closed.ok", float64(ok), measured)
	r.set("bench.closed.failed", float64(measured-ok), measured)

	// Every analysis of one input must be identical, and equal to the
	// committed digest where digests.json has one.
	switch {
	case len(digests) > 1:
		r.fail(r.attempted, "analyses of one input disagree: %d distinct digests", len(digests))
	case len(digests) == 1:
		for got := range digests {
			fmt.Fprintf(os.Stderr, "analysis digest: %s\n", got)
			if b.want != "" && got != b.want {
				r.fail(r.attempted, "analysis digest %s, committed %s", got, b.want)
			}
		}
	}
}

func countFinite(xs []float64) int {
	n := 0
	for _, x := range xs {
		if !math.IsInf(x, 0) {
			n++
		}
	}
	return n
}

// tracedOps is how many traced analyses a batch run takes; each
// per-layer time is the median over them, as the measured times are
// medians.
const tracedOps = 3

// traceOp repeats the analysis tracedOps times as its public calls in
// core.Run's order, each call under its own span, and checks that each
// partitions the jobs as the measured analyses did.
func (b *batch) traceOp(r *run, t *tracer) error {
	an := b.last
	if an == nil {
		return fmt.Errorf("bench: no successful analysis to compare the traced op with")
	}
	want := partitionDigest(an.FilterStats, an.Sample, an.Similarity, an.Labels, an.Silhouette)
	for i := 0; i < tracedOps; i++ {
		debug.FreeOSMemory() // as before each measured op
		got, err := b.tracedAnalysis(r, t)
		if err != nil {
			return err
		}
		if got != want {
			r.fail(r.attempted, "traced op's partition differs from the measured analyses'")
			break
		}
	}

	median := func(layer string) (float64, int) {
		_, per := t.perOp(layer)
		return pct(msOf(per), 0.5), len(per)
	}
	for _, layer := range []string{"trace.decode", "trace.group", "sampling.filter", "sampling.sample",
		"dag.jobs", "wl.features", "wl.matrix", "linalg.dense", "cluster.spectral", "cluster.silhouette"} {
		if ms, n := median(layer); ms > 0 {
			r.set(layer+"_ms", ms, n)
		}
	}
	if ms, n := median("trace.decode"); ms > 0 {
		r.set("trace.decode_mb_per_s", float64(b.bytes)/1e6/(ms/1000), n)
	}
	// The measured op less the traced layers: core.Run's private group
	// profiling, its engine, and the tracing itself.
	traced, n := median("")
	r.set("bench.unattributed_pct", 100*(b.medianMs-traced)/b.medianMs, n)
	return nil
}

// tracedAnalysis runs one traced analysis, records its counts, and
// returns its partition digest.
func (b *batch) tracedAnalysis(r *run, t *tracer) (string, error) {
	cfg := b.cfg
	jobs := b.jobs
	op := t.op()
	defer op.End()
	var err error
	layer := func(name string, fn func() error) {
		if err == nil {
			err = t.layer(op, name, fn)
		}
	}
	if b.table != "" {
		cfg.Arena = taskname.NewArena()
		var records []trace.TaskRecord
		layer("trace.decode", func() error {
			f, err := trace.OpenTable(b.table)
			if err != nil {
				return err
			}
			defer f.Close()
			_, err = trace.ReadTasksOpts(f, trace.ReadOptions{Arena: cfg.Arena}, func(rec trace.TaskRecord) error {
				records = append(records, rec)
				return nil
			})
			return err
		})
		layer("trace.group", func() error {
			jobs = trace.GroupTasksN(records, cfg.Workers)
			return nil
		})
		r.set("trace.rows", float64(len(records)), 1)
		r.set("trace.jobs", float64(len(jobs)), 1)
	}

	var (
		cands   []sampling.Candidate
		fstats  sampling.FilterStats
		sample  []sampling.Candidate
		vectors []wl.Vector
		dict    *wl.Dictionary
		compact []wl.CompactVector
		sim     *linalg.SymMatrix
		dense   [3]*linalg.Matrix
		spec    *cluster.SpectralResult
		silh    float64
		sweeps  float64
	)
	layer("sampling.filter", func() (err error) {
		cands, fstats, err = sampling.FilterOpts(jobs, cfg.Criteria,
			sampling.FilterOptions{Workers: cfg.Workers, Arena: cfg.Arena})
		return err
	})
	layer("sampling.sample", func() error {
		sample = sampling.SampleDiverse(cands, cfg.SampleSize, cfg.Seed)
		return nil
	})
	graphs := sampling.Graphs(sample)
	layer("dag.jobs", func() error {
		for _, g := range graphs {
			if _, _, err := g.DepthAndMaxWidth(); err != nil {
				return err
			}
			// core.Run counts chains and skips graphs it cannot classify.
			pattern.Classify(g)
		}
		return nil
	})
	layer("wl.features", func() (err error) {
		vectors, dict, err = wl.Features(graphs, cfg.WL)
		compact = wl.CompactAll(vectors)
		return err
	})
	layer("wl.matrix", func() (err error) {
		sim, err = wl.SymMatrixFromCompactOpts(compact, wl.MatrixOptions{Workers: cfg.Workers})
		return err
	})
	// core.Run expands the packed matrix three times: for clustering,
	// for group profiles, and for Analysis.Similarity.
	for i := range dense {
		layer("linalg.dense", func() error {
			dense[i] = sim.Dense()
			return nil
		})
	}
	layer("cluster.spectral", func() (err error) {
		before := eigenSweeps()
		spec, err = cluster.Spectral(dense[0], cluster.SpectralOptions{
			K:      cfg.Groups,
			KMeans: cluster.KMeansOptions{Seed: cfg.Seed},
		})
		sweeps = eigenSweeps() - before
		return err
	})
	layer("cluster.silhouette", func() error {
		dist, err := cluster.DistanceFromSimilarity(dense[1])
		if err != nil {
			return err
		}
		silh, err = cluster.Silhouette(dist, spec.Labels)
		return err
	})
	if err != nil {
		return "", err
	}
	r.set("sampling.keep_ratio", float64(fstats.Kept)/float64(fstats.Input), fstats.Input)
	r.set("wl.labels", float64(dict.Len()), 1)
	r.set("wl.pairs", float64(sim.N*(sim.N+1)/2), 1)
	r.set("linalg.dense_calls", float64(len(dense)), 1)
	r.set("linalg.eigen_sweeps", sweeps, 1)
	return partitionDigest(fstats, sample, dense[2], spec.Labels, silh), nil
}

func (b *batch) close() error { return nil }

// eigenSweeps is the running total of Jacobi sweeps in the existing
// linalg.eigen.sweeps histogram.
func eigenSweeps() float64 {
	h := obs.Default().Snapshot().Histograms["linalg.eigen.sweeps"]
	return math.Round(h.Mean * float64(h.Count))
}

// partitionDigest is the SHA-256 of what the traced op recomputes: the
// filter stats, the sampled job ids, the similarity matrix, the
// partition with labels renumbered by first occurrence, and the
// silhouette. Renumbering lets a solver change that only permutes
// cluster ids keep the digest; any change to the grouping changes it.
func partitionDigest(fs sampling.FilterStats, sample []sampling.Candidate, sim *linalg.Matrix, labels []int, silhouette float64) string {
	h := sha256.New()
	fmt.Fprintf(h, "%+v\n", fs)
	for _, c := range sample {
		fmt.Fprintf(h, "%s\n", c.Job.Name)
	}
	fmt.Fprintf(h, "%dx%d\n", sim.Rows, sim.Cols)
	writeFloats(h, sim.Data)
	renumber := map[int]int{}
	for _, l := range labels {
		if _, ok := renumber[l]; !ok {
			renumber[l] = len(renumber)
		}
		fmt.Fprintf(h, "%d,", renumber[l])
	}
	writeFloats(h, []float64{silhouette})
	return hex.EncodeToString(h.Sum(nil))
}

// analysisDigest extends partitionDigest with the group profiles, in
// order of each group's first member and without the population-rank
// names, which depend on cluster ids when two groups tie in size.
func analysisDigest(an *core.Analysis) string {
	h := sha256.New()
	fmt.Fprintln(h, partitionDigest(an.FilterStats, an.Sample, an.Similarity, an.Labels, an.Silhouette))
	groups := append([]core.GroupProfile(nil), an.Groups...)
	sort.Slice(groups, func(i, j int) bool { return groups[i].Members[0] < groups[j].Members[0] })
	for i := range groups {
		groups[i].Name = ""
	}
	if err := json.NewEncoder(h).Encode(groups); err != nil {
		// Profiles are plain numbers and strings; encoding cannot fail
		// unless a value is NaN, which is itself a wrong analysis.
		fmt.Fprintf(h, "unencodable: %v", err)
	}
	return hex.EncodeToString(h.Sum(nil))
}

func writeFloats(h hash.Hash, xs []float64) {
	buf := make([]byte, 8)
	for _, x := range xs {
		binary.LittleEndian.PutUint64(buf, math.Float64bits(x))
		h.Write(buf)
	}
}
