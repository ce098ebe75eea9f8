package sampling

import (
	"reflect"
	"testing"

	"jobgraph/internal/tracegen"
)

func TestFilterParallelEquivalence(t *testing.T) {
	jobs := genJobs(t, 3000, 11)
	c := PaperCriteria(window())
	want, wantStats, err := FilterOpts(jobs, c, FilterOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{0, 2, 4, 9} {
		got, gotStats, err := FilterOpts(jobs, c, FilterOptions{Workers: w})
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		if gotStats != wantStats {
			t.Fatalf("workers=%d: stats differ: %+v vs %+v", w, gotStats, wantStats)
		}
		if len(got) != len(want) {
			t.Fatalf("workers=%d: %d candidates, want %d", w, len(got), len(want))
		}
		for i := range want {
			if got[i].Job.Name != want[i].Job.Name {
				t.Fatalf("workers=%d: candidate %d is %s, want %s",
					w, i, got[i].Job.Name, want[i].Job.Name)
			}
			if !reflect.DeepEqual(got[i].Graph.NodeIDs(), want[i].Graph.NodeIDs()) {
				t.Fatalf("workers=%d: candidate %d graph differs", w, i)
			}
		}
	}
}

// BenchmarkParallelDAGBuild measures the per-job DAG construction fan-
// out (the §IV-B filter, whose cost is dominated by dag.FromTasks) on
// a 3k-job synthetic trace; cmd/benchdiff tracks it across runs.
func BenchmarkParallelDAGBuild(b *testing.B) {
	jobs, err := tracegen.GenerateJobs(tracegen.DefaultConfig(3000, 1))
	if err != nil {
		b.Fatal(err)
	}
	c := PaperCriteria(window())
	for _, w := range []int{1, 2, 4} {
		b.Run(benchName(w), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				cands, _, err := FilterOpts(jobs, c, FilterOptions{Workers: w})
				if err != nil {
					b.Fatal(err)
				}
				if len(cands) == 0 {
					b.Fatal("no candidates survived")
				}
			}
		})
	}
}

func benchName(w int) string {
	return map[int]string{1: "workers=1", 2: "workers=2", 4: "workers=4"}[w]
}
