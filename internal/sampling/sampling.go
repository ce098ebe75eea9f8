// Package sampling implements the paper's job selection criteria
// (§IV-B): Integrity (only fully terminated jobs), Availability (the
// job's execution window lies entirely inside the observed trace
// interval, so durations are trustworthy) and Variability (the sample
// spans many distinct topologies and sizes).
package sampling

import (
	"fmt"
	"math/rand"
	"runtime"
	"sort"

	"jobgraph/internal/dag"
	"jobgraph/internal/obs"
	"jobgraph/internal/par"
	"jobgraph/internal/taskname"
	"jobgraph/internal/trace"
)

// Filter outcome tallies, keyed by rejection reason — the counter form
// of FilterStats, accumulated across every FilterOpts call in the process
// so metrics.json shows the §IV-B selection funnel.
var (
	obsFilterInput    = obs.Default().Counter("sampling.filter.input")
	obsFilterKept     = obs.Default().Counter("sampling.filter.kept")
	obsRejTerminated  = obs.Default().Counter("sampling.filter.rejected.not_terminated")
	obsRejWindow      = obs.Default().Counter("sampling.filter.rejected.outside_window")
	obsRejNoWindow    = obs.Default().Counter("sampling.filter.rejected.no_window")
	obsRejNonDAG      = obs.Default().Counter("sampling.filter.rejected.non_dag")
	obsRejSize        = obs.Default().Counter("sampling.filter.rejected.size")
	obsRejBuildErrors = obs.Default().Counter("sampling.filter.rejected.build_error")
	obsSampledJobs    = obs.Default().Counter("sampling.sampled_jobs")
)

// record mirrors one FilterOpts outcome into the process-wide counters.
func (st FilterStats) record() {
	obsFilterInput.Add(int64(st.Input))
	obsFilterKept.Add(int64(st.Kept))
	obsRejTerminated.Add(int64(st.NotTerminated))
	obsRejWindow.Add(int64(st.OutsideWindow))
	obsRejNoWindow.Add(int64(st.NoWindow))
	obsRejNonDAG.Add(int64(st.NonDAG))
	obsRejSize.Add(int64(st.SizeRejected))
	obsRejBuildErrors.Add(int64(st.BuildErrors))
}

// Criteria configures eligibility filtering.
type Criteria struct {
	// WindowStart/WindowEnd delimit the observed trace interval;
	// Availability requires every job's [start, end] to fall strictly
	// inside (jobs touching the boundary may be truncated records).
	WindowStart, WindowEnd int64

	// RequireTerminated enforces Integrity.
	RequireTerminated bool

	// MinSize/MaxSize bound the DAG size (tasks after name decoding);
	// the paper studies jobs of 2–31 tasks.
	MinSize, MaxSize int
}

// PaperCriteria returns the selection used in the paper-scale
// experiments for a trace covering [0, window].
func PaperCriteria(window int64) Criteria {
	return Criteria{
		WindowStart:       0,
		WindowEnd:         window,
		RequireTerminated: true,
		MinSize:           2,
		MaxSize:           31,
	}
}

func (c Criteria) validate() error {
	if c.WindowEnd <= c.WindowStart {
		return fmt.Errorf("sampling: empty window [%d,%d]", c.WindowStart, c.WindowEnd)
	}
	if c.MinSize < 0 || (c.MaxSize > 0 && c.MaxSize < c.MinSize) {
		return fmt.Errorf("sampling: bad size bounds [%d,%d]", c.MinSize, c.MaxSize)
	}
	return nil
}

// Candidate pairs a trace job with its decoded DAG.
type Candidate struct {
	Job   trace.Job
	Graph *dag.Graph
}

// FilterStats reports why jobs were rejected.
type FilterStats struct {
	Input         int
	Kept          int
	NotTerminated int // integrity failures
	OutsideWindow int // availability failures
	NoWindow      int // no valid execution interval at all
	NonDAG        int // no decodable dependency structure
	SizeRejected  int
	BuildErrors   int
}

// FilterOptions carries the execution knobs of a filter run — unlike
// Criteria they never change which jobs survive, so they stay out of
// cache fingerprints.
type FilterOptions struct {
	// Workers bounds the filter goroutines (<=0: all CPUs).
	Workers int
	// Arena, when non-nil, resolves the task records' interned name
	// symbols to cached parses during DAG construction (the records must
	// have been read with the same arena on trace.ReadOptions.Arena;
	// stale or zero symbols safely fall back to parsing the name).
	Arena *taskname.Arena
}

// FilterOpts applies Integrity and Availability, building a DAG for
// every surviving job. Jobs whose names fail to decode into any DAG
// vertices are counted as NonDAG and dropped (they are the ~50%
// independent workload, not an error). The job list is cut into
// contiguous shards filtered independently — per-job DAG construction
// dominates the cost and is embarrassingly parallel — and the surviving
// candidates are merged in shard order, so the output is identical at
// every worker count.
func FilterOpts(jobs []trace.Job, c Criteria, opt FilterOptions) ([]Candidate, FilterStats, error) {
	workers := opt.Workers
	if err := c.validate(); err != nil {
		return nil, FilterStats{}, err
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = min(workers, max(len(jobs), 1))
	outs := make([][]Candidate, workers)
	stats := make([]FilterStats, workers)
	par.For(workers, workers, func(w int) error {
		outs[w], stats[w] = filterRange(jobs[len(jobs)*w/workers:len(jobs)*(w+1)/workers], c, opt.Arena)
		return nil
	}, nil)
	out, st := outs[0], stats[0]
	for w := 1; w < workers; w++ {
		out = append(out, outs[w]...)
		st.NotTerminated += stats[w].NotTerminated
		st.OutsideWindow += stats[w].OutsideWindow
		st.NoWindow += stats[w].NoWindow
		st.NonDAG += stats[w].NonDAG
		st.SizeRejected += stats[w].SizeRejected
		st.BuildErrors += stats[w].BuildErrors
	}
	st.Input, st.Kept = len(jobs), len(out)
	st.record()
	return out, st, nil
}

// filterRange applies the selection criteria to one contiguous job
// shard; Input/Kept and the obs mirroring are the caller's job.
func filterRange(jobs []trace.Job, c Criteria, arena *taskname.Arena) ([]Candidate, FilterStats) {
	var st FilterStats
	var out []Candidate
	for _, j := range jobs {
		if c.RequireTerminated && !j.AllTerminated() {
			st.NotTerminated++
			continue
		}
		start, end, ok := j.Window()
		if !ok {
			st.NoWindow++
			continue
		}
		if start <= c.WindowStart || end >= c.WindowEnd {
			st.OutsideWindow++
			continue
		}
		specs := make([]dag.TaskSpec, 0, len(j.Tasks))
		for _, t := range j.Tasks {
			specs = append(specs, dag.TaskSpec{
				Name:      t.TaskName,
				Sym:       t.TaskSym,
				Duration:  t.Duration(),
				Instances: t.InstanceNum,
				PlanCPU:   t.PlanCPU,
				PlanMem:   t.PlanMem,
			})
		}
		res, err := dag.FromTasks(j.Name, specs, dag.BuildOptions{SkipMissingDeps: true, Arena: arena})
		if err != nil {
			st.BuildErrors++
			continue
		}
		size := res.Graph.Size()
		if size == 0 {
			st.NonDAG++
			continue
		}
		if size < c.MinSize || (c.MaxSize > 0 && size > c.MaxSize) {
			st.SizeRejected++
			continue
		}
		out = append(out, Candidate{Job: j, Graph: res.Graph})
	}
	return out, st
}

// SampleDiverse draws n candidates preserving Variability without
// destroying the workload's natural size skew: a first pass picks one
// random job per distinct size so every size present in the pool is
// represented (the paper's "17 different size types"), and the
// remainder is filled by uniform random sampling from the rest of the
// pool, which keeps small jobs as dominant in the sample as they are in
// the trace. When n exceeds the pool, the whole pool is returned.
func SampleDiverse(pool []Candidate, n int, seed int64) []Candidate {
	if n <= 0 {
		return nil
	}
	if n >= len(pool) {
		out := append([]Candidate(nil), pool...)
		obsSampledJobs.Add(int64(len(out)))
		return out
	}
	rng := rand.New(rand.NewSource(seed))

	bySize := make(map[int][]Candidate)
	for _, c := range pool {
		bySize[c.Graph.Size()] = append(bySize[c.Graph.Size()], c)
	}
	sizes := make([]int, 0, len(bySize))
	for s := range bySize {
		sizes = append(sizes, s)
	}
	sort.Ints(sizes)

	out := make([]Candidate, 0, n)
	var rest []Candidate
	// Coverage pass, in deterministic (sorted-size) order so the sample
	// is reproducible for a given seed.
	for _, s := range sizes {
		group := bySize[s]
		rng.Shuffle(len(group), func(i, j int) { group[i], group[j] = group[j], group[i] })
		if len(out) < n {
			out = append(out, group[0])
			rest = append(rest, group[1:]...)
		} else {
			rest = append(rest, group...)
		}
	}
	// Natural-skew fill.
	rng.Shuffle(len(rest), func(i, j int) { rest[i], rest[j] = rest[j], rest[i] })
	for _, c := range rest {
		if len(out) == n {
			break
		}
		out = append(out, c)
	}
	obsSampledJobs.Add(int64(len(out)))
	return out
}

// Graphs extracts the DAGs of a candidate list, in order.
func Graphs(cands []Candidate) []*dag.Graph {
	gs := make([]*dag.Graph, len(cands))
	for i, c := range cands {
		gs[i] = c.Graph
	}
	return gs
}
