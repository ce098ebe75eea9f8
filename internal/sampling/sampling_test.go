package sampling

import (
	"testing"

	"jobgraph/internal/trace"
	"jobgraph/internal/tracegen"
)

func genJobs(t testing.TB, n int, seed int64) []trace.Job {
	t.Helper()
	jobs, err := tracegen.GenerateJobs(tracegen.DefaultConfig(n, seed))
	if err != nil {
		t.Fatal(err)
	}
	return jobs
}

func window() int64 { return 8 * 24 * 3600 * 2 } // generous: arrival + runtime

func TestFilterKeepsOnlyTerminatedDAGs(t *testing.T) {
	jobs := genJobs(t, 2000, 1)
	cands, st, err := FilterOpts(jobs, PaperCriteria(window()), FilterOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if st.Input != 2000 {
		t.Fatalf("input = %d", st.Input)
	}
	if st.Kept == 0 || st.Kept != len(cands) {
		t.Fatalf("kept = %d, len = %d", st.Kept, len(cands))
	}
	for _, c := range cands {
		if !c.Job.AllTerminated() {
			t.Fatalf("non-terminated job %s kept", c.Job.Name)
		}
		if c.Graph.Size() < 2 || c.Graph.Size() > 31 {
			t.Fatalf("size %d outside bounds", c.Graph.Size())
		}
	}
	// The generator injects ~12% non-terminated jobs; some must have
	// been rejected for integrity.
	if st.NotTerminated == 0 {
		t.Fatal("no integrity rejections on a trace with failures")
	}
	// ~50% of jobs are flat; they are counted as NonDAG or NoWindow.
	if st.NonDAG == 0 {
		t.Fatal("no non-DAG jobs seen")
	}
	// Accounting must add up.
	total := st.Kept + st.NotTerminated + st.OutsideWindow + st.NoWindow +
		st.NonDAG + st.SizeRejected + st.BuildErrors
	if total != st.Input {
		t.Fatalf("stats don't add up: %+v", st)
	}
}

func TestFilterAvailabilityWindow(t *testing.T) {
	jobs := genJobs(t, 500, 2)
	// A window that excludes everything.
	crit := PaperCriteria(window())
	crit.WindowStart = 1 << 60
	crit.WindowEnd = 1<<60 + 1000
	cands, st, err := FilterOpts(jobs, crit, FilterOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(cands) != 0 {
		t.Fatalf("kept %d jobs outside window", len(cands))
	}
	if st.OutsideWindow == 0 {
		t.Fatal("no availability rejections recorded")
	}
}

func TestFilterSizeBounds(t *testing.T) {
	jobs := genJobs(t, 1000, 3)
	crit := PaperCriteria(window())
	crit.MinSize = 10
	crit.MaxSize = 31
	cands, st, err := FilterOpts(jobs, crit, FilterOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range cands {
		if c.Graph.Size() < 10 {
			t.Fatalf("size %d below bound", c.Graph.Size())
		}
	}
	if st.SizeRejected == 0 {
		t.Fatal("no size rejections with MinSize=10")
	}
}

func TestFilterValidation(t *testing.T) {
	if _, _, err := FilterOpts(nil, Criteria{WindowStart: 5, WindowEnd: 5}, FilterOptions{Workers: 1}); err == nil {
		t.Fatal("empty window accepted")
	}
	if _, _, err := FilterOpts(nil, Criteria{WindowEnd: 10, MinSize: 5, MaxSize: 2}, FilterOptions{Workers: 1}); err == nil {
		t.Fatal("inverted size bounds accepted")
	}
}

func TestSampleDiverseCoversSizesFirst(t *testing.T) {
	jobs := genJobs(t, 5000, 4)
	cands, _, err := FilterOpts(jobs, PaperCriteria(window()), FilterOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	poolSizes := make(map[int]bool)
	for _, c := range cands {
		poolSizes[c.Graph.Size()] = true
	}
	n := len(poolSizes) // exactly one per size
	sample := SampleDiverse(cands, n, 7)
	if len(sample) != n {
		t.Fatalf("sample = %d, want %d", len(sample), n)
	}
	seen := make(map[int]bool)
	for _, c := range sample {
		if seen[c.Graph.Size()] {
			t.Fatalf("size %d repeated before covering all sizes", c.Graph.Size())
		}
		seen[c.Graph.Size()] = true
	}
}

func TestSampleDiversePaperScale(t *testing.T) {
	// 100 jobs sampled as in the paper: expect many distinct sizes.
	jobs := genJobs(t, 20000, 5)
	cands, _, err := FilterOpts(jobs, PaperCriteria(window()), FilterOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	sample := SampleDiverse(cands, 100, 11)
	if len(sample) != 100 {
		t.Fatalf("sample = %d", len(sample))
	}
	sizes := make(map[int]bool)
	for _, c := range sample {
		sizes[c.Graph.Size()] = true
	}
	if len(sizes) < 15 {
		t.Fatalf("distinct sizes in sample = %d, want >= 15", len(sizes))
	}
}

func TestSampleDiverseEdgeCases(t *testing.T) {
	jobs := genJobs(t, 200, 6)
	cands, _, err := FilterOpts(jobs, PaperCriteria(window()), FilterOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if got := SampleDiverse(cands, 0, 1); got != nil {
		t.Fatal("n=0 should return nil")
	}
	all := SampleDiverse(cands, len(cands)+10, 1)
	if len(all) != len(cands) {
		t.Fatalf("oversample = %d, want %d", len(all), len(cands))
	}
}

func TestSampleDiverseDeterministic(t *testing.T) {
	jobs := genJobs(t, 1000, 7)
	cands, _, err := FilterOpts(jobs, PaperCriteria(window()), FilterOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	a := SampleDiverse(cands, 50, 3)
	b := SampleDiverse(cands, 50, 3)
	for i := range a {
		if a[i].Job.Name != b[i].Job.Name {
			t.Fatal("same seed, different samples")
		}
	}
}

func TestGraphs(t *testing.T) {
	jobs := genJobs(t, 300, 8)
	cands, _, err := FilterOpts(jobs, PaperCriteria(window()), FilterOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	gs := Graphs(cands)
	if len(gs) != len(cands) {
		t.Fatal("length mismatch")
	}
	for i := range gs {
		if gs[i] != cands[i].Graph {
			t.Fatal("order not preserved")
		}
	}
}
