package wl

import (
	"fmt"
	"math/rand"
	"testing"

	"jobgraph/internal/dag"
)

// TestSymMatrixMatchesDense pins the packed kernel matrix, expanded to
// its dense form, to pairwise Similarity over the map vectors bit for
// bit: the pipeline caches the packed form and expands it downstream,
// so any divergence here would silently change Analysis output.
func TestSymMatrixMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	graphs := make([]*dag.Graph, 30)
	for i := range graphs {
		graphs[i] = randomDAG(rng, fmt.Sprintf("g%d", i), 2+rng.Intn(10))
	}
	vecs, _, err := Features(graphs, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	compact := CompactAll(vecs)
	for _, workers := range []int{1, 4} {
		packed, err := SymMatrixFromCompactOpts(compact, MatrixOptions{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		got := packed.Dense()
		if got.Rows != len(vecs) || got.Cols != len(vecs) {
			t.Fatalf("workers=%d shape %dx%d, want %dx%d", workers, got.Rows, got.Cols, len(vecs), len(vecs))
		}
		for i := range vecs {
			for j := range vecs {
				if g, w := got.At(i, j), Similarity(vecs[i], vecs[j]); g != w {
					t.Fatalf("workers=%d kernel differs from pairwise Similarity at (%d,%d): %v != %v",
						workers, i, j, g, w)
				}
			}
		}
	}
}

// TestCompactVectorDotMatchesMap pins the merge-join dot to the map
// dot, including self-kernels and vectors with no overlap.
func TestCompactVectorDotMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for trial := 0; trial < 50; trial++ {
		a, b := Vector{}, Vector{}
		for k := 0; k < 40; k++ {
			if rng.Intn(3) == 0 {
				a[rng.Intn(60)] += float64(1 + rng.Intn(5))
			}
			if rng.Intn(3) == 0 {
				b[rng.Intn(60)] += float64(1 + rng.Intn(5))
			}
		}
		ca, cb := CompactFromVector(a), CompactFromVector(b)
		if got, want := ca.Dot(cb), Dot(a, b); got != want {
			t.Fatalf("trial %d: compact dot %v != map dot %v", trial, got, want)
		}
		if got, want := ca.SelfDot(), Dot(a, a); got != want {
			t.Fatalf("trial %d: compact self %v != map self %v", trial, got, want)
		}
	}
}
