// Slow-job exemplar capture: the dag.jobs stage times every sampled
// job and the top-k slowest are retained with their graph shape and
// assigned group — Grandl et al.'s "do the hard stuff first"
// observation applied to telemetry: the slowest jobs carry the signal,
// so they are the ones worth drilling into. Exemplars surface on
// Analysis.SlowJobs, the obs exemplar store (metrics.json and
// /progress), and as synthetic pipeline/dag.jobs/slow/<job> spans in
// the stage tree.
//
// Per-job wall times are measurement, not analysis output: they never
// enter the cached dag.jobs artifact or the Analysis fingerprint, so
// cold and warm runs stay bit-identical. A run satisfied from the
// cache computes nothing per job and therefore reports no exemplars.
package core

import (
	"fmt"
	"sort"
	"time"

	"jobgraph/internal/obs"
	"jobgraph/internal/stages"
)

// DefaultSlowJobK is the exemplar count retained when Config.SlowJobK
// is zero.
const DefaultSlowJobK = 8

// SlowJob is one retained slowest-job exemplar from the dag.jobs stage.
type SlowJob struct {
	// JobID identifies the job; Index is its position in
	// Analysis.Sample/Graphs/JobStats.
	JobID string
	Index int
	// Duration is the job's wall time in the dag.jobs worker pool
	// (conflation + structural statistics).
	Duration time.Duration
	// Nodes/Edges/Depth/MaxWidth describe the (possibly conflated) DAG.
	Nodes, Edges, Depth, MaxWidth int
	// Group is the population-rank label ("A", "B", ...) the job was
	// assigned by clustering.
	Group string
}

// slowJobK resolves the configured exemplar count: 0 means
// DefaultSlowJobK, negative disables capture.
func (c Config) slowJobK() int {
	if c.SlowJobK == 0 {
		return DefaultSlowJobK
	}
	if c.SlowJobK < 0 {
		return 0
	}
	return c.SlowJobK
}

// jobTimes receives the per-job wall times measured inside the
// dag.jobs stage. It is plan-scoped, not artifact-scoped: the stage
// fills it only when it actually executes, so a cache-served stage
// leaves it empty.
type jobTimes struct {
	durs []time.Duration // index-aligned with the sample; filled by the par.For workers
}

// slowJobs assembles the top-k exemplars from the measured times. The
// sort is deterministic for fixed durations (ties break on job id),
// though the durations themselves are wall-clock measurements.
func slowJobs(times *jobTimes, an *Analysis, k int) []SlowJob {
	if times == nil || len(times.durs) == 0 || k <= 0 {
		return nil
	}
	group := make(map[int]string)
	for _, gp := range an.Groups {
		for _, idx := range gp.Members {
			group[idx] = gp.Name
		}
	}
	out := make([]SlowJob, 0, len(times.durs))
	for i, d := range times.durs {
		if i >= len(an.Graphs) {
			break
		}
		g := an.Graphs[i]
		js := an.JobStats[i]
		out = append(out, SlowJob{
			JobID:    g.JobID,
			Index:    i,
			Duration: d,
			Nodes:    js.Size,
			Edges:    g.NumEdges(),
			Depth:    js.Depth,
			MaxWidth: js.MaxWidth,
			Group:    group[i],
		})
	}
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Duration != out[j].Duration {
			return out[i].Duration > out[j].Duration
		}
		return out[i].JobID < out[j].JobID
	})
	if len(out) > k {
		out = out[:k]
	}
	return out
}

// publishSlowJobs surfaces the exemplars on the obs registry: the
// exemplar store (picked up by metrics.json, /progress, the ledger and
// the run report) and one synthetic span per exemplar under
// pipeline/dag.jobs/slow/<job>, giving the stage tree a drill-down
// subtree for exactly the jobs that dominated the stage.
func publishSlowJobs(reg *obs.Registry, slow []SlowJob, k int) {
	for _, sj := range slow {
		reg.RecordExemplar(stages.DAGJobs, k, obs.Exemplar{
			ID:         sj.JobID,
			DurationMs: float64(sj.Duration) / float64(time.Millisecond),
			Nodes:      sj.Nodes,
			Edges:      sj.Edges,
			Group:      sj.Group,
			Detail:     fmt.Sprintf("depth=%d width=%d", sj.Depth, sj.MaxWidth),
		})
		reg.RecordSpan([]string{stages.Pipeline, stages.DAGJobs, "slow", sj.JobID}, sj.Duration, 0)
	}
}
