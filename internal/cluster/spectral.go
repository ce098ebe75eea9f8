package cluster

import (
	"fmt"
	"math"

	"jobgraph/internal/linalg"
	"jobgraph/internal/obs"
)

// obsSpectralRuns counts full spectral clusterings (eigendecomposition
// plus embedded k-means).
var obsSpectralRuns = obs.Default().Counter("cluster.spectral.runs")

// SpectralOptions configures Ng–Jordan–Weiss spectral clustering.
type SpectralOptions struct {
	K      int
	KMeans KMeansOptions // K field is overridden with SpectralOptions.K
}

// SpectralResult is the spectral clustering output.
type SpectralResult struct {
	Labels []int
	// Embedding is the row-normalized top-K eigenvector matrix the
	// labels were derived from (n×K); exposed for inspection and for
	// silhouette computation in the embedded space.
	Embedding *linalg.Matrix
	// Eigenvalues of the normalized affinity, descending. The gap after
	// the K-th value is the usual heuristic check that K is sensible.
	Eigenvalues []float64
	// Warnings records non-fatal degradations taken to produce the
	// result: a degenerate k-means labeling. Empty on a clean run.
	Warnings []string
}

// Spectral clusters n items given their symmetric, non-negative affinity
// matrix (similarities, not distances) following Ng, Jordan & Weiss
// (NIPS 2001):
//
//  1. L ← D^{-1/2} A D^{-1/2} with D the diagonal degree matrix,
//  2. X ← top-K eigenvectors of L as columns,
//  3. rows of X normalized to unit length,
//  4. k-means on the rows.
//
// The paper applies exactly this to the WL similarity map to obtain its
// five job groups (§VI-A).
func Spectral(affinity *linalg.Matrix, opt SpectralOptions) (*SpectralResult, error) {
	n := affinity.Rows
	if affinity.Cols != n {
		return nil, fmt.Errorf("cluster: affinity must be square, got %dx%d", n, affinity.Cols)
	}
	if opt.K < 1 || opt.K > n {
		return nil, fmt.Errorf("cluster: k=%d out of range [1,%d]", opt.K, n)
	}
	if !affinity.IsSymmetric(1e-9) {
		return nil, fmt.Errorf("cluster: affinity matrix is not symmetric")
	}
	for i := 0; i < n; i++ {
		for j, v := range affinity.Row(i) {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return nil, fmt.Errorf("cluster: non-finite affinity %g at (%d,%d)", v, i, j)
			}
			if v < 0 {
				return nil, fmt.Errorf("cluster: negative affinity at (%d,%d)", i, j)
			}
		}
	}

	eig, err := linalg.SymmetricEigen(normalizedAffinity(affinity))
	if err != nil {
		return nil, fmt.Errorf("cluster: %w", err)
	}
	x, err := linalg.TopKEigenvectors(eig, opt.K)
	if err != nil {
		return nil, fmt.Errorf("cluster: %w", err)
	}
	// Row-normalize.
	for i := 0; i < n; i++ {
		linalg.Normalize(x.Row(i))
	}

	points := make([][]float64, n)
	for i := 0; i < n; i++ {
		points[i] = x.Row(i)
	}
	km := opt.KMeans
	km.K = opt.K
	res, err := KMeans(points, km)
	if err != nil {
		return nil, fmt.Errorf("cluster: %w", err)
	}
	var warnings []string
	if res.Degenerate {
		warnings = append(warnings, fmt.Sprintf(
			"k-means produced %d populated clusters for k=%d despite reseeding; groups may be merged",
			distinctLabels(res.Labels), opt.K))
	}
	obsSpectralRuns.Add(1)
	return &SpectralResult{
		Labels:      res.Labels,
		Embedding:   x,
		Eigenvalues: eig.Values,
		Warnings:    warnings,
	}, nil
}

// normalizedAffinity returns the NJW matrix L = D^{-1/2} A D^{-1/2},
// with D the diagonal degree matrix of a. A fully isolated item (zero
// similarity to everything, itself included) keeps a zero row; it lands
// in whatever cluster k-means gives the zero embedding.
func normalizedAffinity(a *linalg.Matrix) *linalg.Matrix {
	n := a.Rows
	dinv := make([]float64, n)
	for i := range dinv {
		var deg float64
		for _, v := range a.Row(i) {
			deg += v
		}
		if deg > 0 {
			dinv[i] = 1 / math.Sqrt(deg)
		}
	}
	l := linalg.NewMatrix(n, n)
	for i := range dinv {
		out := l.Row(i)
		for j, v := range a.Row(i) {
			out[j] = v * dinv[i] * dinv[j]
		}
	}
	return l
}

// EigenGap returns the absolute gap λ[k-1]−λ[k] of the result's spectrum
// (descending eigenvalues), the standard diagnostic for choosing K.
func (r *SpectralResult) EigenGap(k int) (float64, error) {
	if k < 1 || k >= len(r.Eigenvalues) {
		return 0, fmt.Errorf("cluster: eigen gap k=%d out of range [1,%d)", k, len(r.Eigenvalues))
	}
	return r.Eigenvalues[k-1] - r.Eigenvalues[k], nil
}
