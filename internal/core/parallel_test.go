package core

import (
	"errors"
	"reflect"
	"strings"
	"testing"
)

// TestRunWorkersDeterminism is the tentpole guarantee: Workers=1 (the
// fully sequential pipeline) and Workers=8 produce an identical
// Analysis on a 3k-job synthetic trace — similarity matrix bytes,
// labels, groups, per-job stats, everything except wall-clock timings.
func TestRunWorkersDeterminism(t *testing.T) {
	jobs := genJobs(t, 3000, 21)
	run := func(workers int) *Analysis {
		cfg := DefaultConfig(testWindow, 21)
		cfg.Workers = workers
		an, err := Run(jobs, cfg)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return an
	}
	seq := run(1)
	par := run(8)

	if !reflect.DeepEqual(seq.Similarity.Data, par.Similarity.Data) {
		t.Error("similarity matrices differ")
	}
	if !reflect.DeepEqual(seq.Labels, par.Labels) {
		t.Error("cluster labels differ")
	}
	if !reflect.DeepEqual(seq.Groups, par.Groups) {
		t.Error("group profiles differ")
	}
	if !reflect.DeepEqual(seq.JobStats, par.JobStats) {
		t.Error("per-job stats differ")
	}
	if seq.Silhouette != par.Silhouette {
		t.Errorf("silhouette differs: %v vs %v", seq.Silhouette, par.Silhouette)
	}
	if !reflect.DeepEqual(seq.FilterStats, par.FilterStats) {
		t.Errorf("filter stats differ: %+v vs %+v", seq.FilterStats, par.FilterStats)
	}
	if len(seq.Sample) != len(par.Sample) {
		t.Fatalf("sample sizes differ: %d vs %d", len(seq.Sample), len(par.Sample))
	}
	for i := range seq.Sample {
		if seq.Sample[i].Job.Name != par.Sample[i].Job.Name {
			t.Fatalf("sample[%d] differs: %s vs %s", i, seq.Sample[i].Job.Name, par.Sample[i].Job.Name)
		}
	}
	if !reflect.DeepEqual(seq.Warnings, par.Warnings) {
		t.Errorf("warnings differ: %v vs %v", seq.Warnings, par.Warnings)
	}
}

func TestRunWorkersDeterminismConflated(t *testing.T) {
	jobs := genJobs(t, 1500, 9)
	run := func(workers int) *Analysis {
		cfg := DefaultConfig(testWindow, 9)
		cfg.Conflate = true
		cfg.Workers = workers
		an, err := Run(jobs, cfg)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return an
	}
	seq, par := run(1), run(4)
	if !reflect.DeepEqual(seq.JobStats, par.JobStats) {
		t.Error("conflated per-job stats differ")
	}
	if !reflect.DeepEqual(seq.Labels, par.Labels) {
		t.Error("conflated labels differ")
	}
}

func TestJobStatsAligned(t *testing.T) {
	an := runPipeline(t, 2000, 3)
	if len(an.JobStats) != len(an.Sample) || len(an.JobStats) != len(an.Graphs) {
		t.Fatalf("JobStats misaligned: %d stats, %d sample, %d graphs",
			len(an.JobStats), len(an.Sample), len(an.Graphs))
	}
	for i, js := range an.JobStats {
		if js.Size != an.Graphs[i].Size() {
			t.Fatalf("JobStats[%d].Size=%d, graph size %d", i, js.Size, an.Graphs[i].Size())
		}
		if js.Depth < 1 || js.MaxWidth < 1 {
			t.Fatalf("JobStats[%d] has empty structure: %+v", i, js)
		}
	}
}

func TestRunOnJobCancels(t *testing.T) {
	jobs := genJobs(t, 1500, 5)
	cfg := DefaultConfig(testWindow, 5)
	cfg.Workers = 4
	cfg.OnJob = func(done, total int) error {
		if done > 3 {
			return errors.New("user interrupt")
		}
		return nil
	}
	_, err := Run(jobs, cfg)
	if err == nil {
		t.Fatal("expected OnJob cancellation to abort the run")
	}
	// The abort names the stage and how far it got.
	if got, want := err.Error(), "core: dag.jobs aborted after "; !strings.HasPrefix(got, want) {
		t.Fatalf("err = %q, want prefix %q", got, want)
	}
}
