package linalg_test

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"jobgraph/internal/cli"
	"jobgraph/internal/cluster"
	"jobgraph/internal/core"
	"jobgraph/internal/linalg"
	"jobgraph/internal/tracegen"
)

// These tests hold linalg.SymmetricEigen to the Jacobi oracle in
// jacobi_oracle_test.go: eigenvalues within 1e-10 of Jacobi's with small
// residuals and orthogonal vectors, and, on WL similarity matrices from
// tracegen samples, the same spectral partition and eigengap K.

// oracleJobs is the tracegen corpus size the WL similarity matrices are
// sampled from: the cluster-n300 benchmark's 20k jobs.
const oracleJobs = 20000

// wlSimilarity returns the WL similarity matrix over an n-job sample of
// a seeded tracegen corpus, as the paper pipeline builds it.
func wlSimilarity(tb testing.TB, n int, seed int64) *linalg.Matrix {
	tb.Helper()
	jobs, err := tracegen.GenerateJobs(tracegen.DefaultConfig(oracleJobs, seed))
	if err != nil {
		tb.Fatal(err)
	}
	cfg := core.DefaultConfig(cli.TraceWindow(), seed)
	cfg.SampleSize = n
	an, err := core.Run(jobs, cfg)
	if err != nil {
		tb.Fatal(err)
	}
	return an.Similarity
}

// njw returns D^{-1/2} A D^{-1/2}, the matrix cluster.Spectral and
// cluster.ChooseK decompose, computed here independently of them.
func njw(a *linalg.Matrix) *linalg.Matrix {
	n := a.Rows
	dinv := make([]float64, n)
	for i := 0; i < n; i++ {
		var deg float64
		for j := 0; j < n; j++ {
			deg += a.At(i, j)
		}
		if deg > 0 {
			dinv[i] = 1 / math.Sqrt(deg)
		}
	}
	l := linalg.NewMatrix(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			l.Set(i, j, a.At(i, j)*dinv[i]*dinv[j])
		}
	}
	return l
}

func gaussianSymmetric(rng *rand.Rand, n int) *linalg.Matrix {
	m := linalg.NewMatrix(n, n)
	for i := 0; i < n; i++ {
		for j := i; j < n; j++ {
			v := rng.NormFloat64()
			m.Set(i, j, v)
			m.Set(j, i, v)
		}
	}
	return m
}

// duplicatedRows returns an n×n similarity-like matrix whose items fall
// into m classes with identical rows, as duplicated job shapes do: its
// rank is at most m, so eigenvalue 0 repeats at least n−m times.
func duplicatedRows(rng *rand.Rand, n, m int) *linalg.Matrix {
	b := linalg.NewMatrix(m, m)
	for i := 0; i < m; i++ {
		b.Set(i, i, 1)
		for j := i + 1; j < m; j++ {
			v := rng.Float64()
			b.Set(i, j, v)
			b.Set(j, i, v)
		}
	}
	class := make([]int, n)
	for i := range class {
		class[i] = rng.Intn(m)
	}
	a := linalg.NewMatrix(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			a.Set(i, j, b.At(class[i], class[j]))
		}
	}
	return a
}

// checkEigenpairs fails unless every returned pair satisfies
// ‖Av−λv‖₂ ≤ tol·‖A‖_F and the vectors are orthonormal within tol.
func checkEigenpairs(t *testing.T, a *linalg.Matrix, res *linalg.EigenResult, tol float64) {
	t.Helper()
	scale := a.FrobeniusNorm()
	var worstRes, worstOrth float64
	for k, v := range res.Vectors {
		av, err := a.MulVec(v)
		if err != nil {
			t.Fatal(err)
		}
		var r2 float64
		for i := range av {
			d := av[i] - res.Values[k]*v[i]
			r2 += d * d
		}
		worstRes = math.Max(worstRes, math.Sqrt(r2)/scale)
		for l := k; l < len(res.Vectors); l++ {
			dot, err := linalg.Dot(v, res.Vectors[l])
			if err != nil {
				t.Fatal(err)
			}
			if k == l {
				dot--
			}
			worstOrth = math.Max(worstOrth, math.Abs(dot))
		}
	}
	if worstRes > tol || worstOrth > tol {
		t.Fatalf("relative residual %.3g, orthogonality error %.3g; both must be ≤ %g", worstRes, worstOrth, tol)
	}
}

func TestEigenMatchesJacobi(t *testing.T) {
	sizes := []int{100, 300}
	if testing.Short() {
		sizes = sizes[:1]
	}
	for _, n := range sizes {
		rng := rand.New(rand.NewSource(int64(n)))
		for _, tc := range []struct {
			name string
			a    *linalg.Matrix
		}{
			{"gaussian", gaussianSymmetric(rng, n)},
			{"duplicated-rows", duplicatedRows(rng, n, n/10)},
			{"duplicated-rows-njw", njw(duplicatedRows(rng, n, n/10))},
		} {
			t.Run(fmt.Sprintf("%s/n=%d", tc.name, n), func(t *testing.T) {
				got, err := linalg.SymmetricEigen(tc.a)
				if err != nil {
					t.Fatal(err)
				}
				want, err := jacobiEigen(tc.a, 0)
				if err != nil || !want.Converged {
					t.Fatalf("oracle: converged=%v err=%v", want != nil && want.Converged, err)
				}
				for k := range want.Values {
					if d := math.Abs(got.Values[k] - want.Values[k]); d > 1e-10 {
						t.Fatalf("λ[%d] = %.17g, Jacobi %.17g (|Δ| = %.3g)", k, got.Values[k], want.Values[k], d)
					}
				}
				checkEigenpairs(t, tc.a, got, 1e-12)
			})
		}
	}
}

// jacobiLabels is cluster.Spectral's embedding and k-means step run on
// the oracle's eigenvectors.
func jacobiLabels(t *testing.T, eig *linalg.EigenResult, k int, seed int64) []int {
	t.Helper()
	x, err := linalg.TopKEigenvectors(eig, k)
	if err != nil {
		t.Fatal(err)
	}
	points := make([][]float64, x.Rows)
	for i := range points {
		points[i] = x.Row(i)
		linalg.Normalize(points[i])
	}
	km, err := cluster.KMeans(points, cluster.KMeansOptions{K: k, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return km.Labels
}

// eigengapK is cluster.ChooseK's rule applied to the oracle's spectrum.
func eigengapK(values []float64, minK, maxK int) int {
	bestK, bestGap := minK, math.Inf(-1)
	for k := minK; k <= maxK; k++ {
		if gap := values[k-1] - values[k]; gap > bestGap {
			bestK, bestGap = k, gap
		}
	}
	return bestK
}

func TestSpectralMatchesJacobiPartitions(t *testing.T) {
	const groups = 5
	sweeps := []struct {
		n     int
		seeds int64
	}{{100, 10}, {300, 10}, {500, 2}}
	if testing.Short() {
		sweeps = sweeps[:1]
	}
	for _, sw := range sweeps {
		for seed := int64(1); seed <= sw.seeds; seed++ {
			t.Run(fmt.Sprintf("n=%d/seed=%d", sw.n, seed), func(t *testing.T) {
				sim := wlSimilarity(t, sw.n, seed)
				got, err := cluster.Spectral(sim, cluster.SpectralOptions{
					K: groups, KMeans: cluster.KMeansOptions{Seed: seed},
				})
				if err != nil {
					t.Fatal(err)
				}
				jac, err := jacobiEigen(njw(sim), 0)
				if err != nil || !jac.Converged {
					t.Fatalf("oracle: converged=%v err=%v", jac != nil && jac.Converged, err)
				}
				ari, err := cluster.ARI(got.Labels, jacobiLabels(t, jac.EigenResult, groups, seed))
				if err != nil {
					t.Fatal(err)
				}
				if ari != 1 {
					t.Fatalf("ARI against the Jacobi partition = %g, want 1", ari)
				}
				k, err := cluster.ChooseK(sim, 2, 10)
				if err != nil {
					t.Fatal(err)
				}
				if want := eigengapK(jac.Values, 2, 10); k != want {
					t.Fatalf("ChooseK = %d, Jacobi eigengap K = %d", k, want)
				}
			})
		}
	}
}

var eigenSink *linalg.EigenResult

// BenchmarkSymmetricEigen decomposes the NJW-normalised WL affinity that
// cluster.Spectral sees at the pipeline's sample sizes.
func BenchmarkSymmetricEigen(b *testing.B) {
	for _, n := range []int{100, 300, 500} {
		l := njw(wlSimilarity(b, n, 1))
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res, err := linalg.SymmetricEigen(l)
				if err != nil {
					b.Fatal(err)
				}
				eigenSink = res
			}
		})
	}
}
