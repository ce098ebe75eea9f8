package linalg

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestSymmetricEigenKnown2x2(t *testing.T) {
	// [[2,1],[1,2]] has eigenvalues 3 and 1 with eigenvectors
	// (1,1)/√2 and (1,-1)/√2.
	m, _ := FromRows([][]float64{{2, 1}, {1, 2}})
	res, err := SymmetricEigen(m)
	if err != nil {
		t.Fatal(err)
	}
	if !almost(res.Values[0], 3, 1e-10) || !almost(res.Values[1], 1, 1e-10) {
		t.Fatalf("values = %v, want [3 1]", res.Values)
	}
	v0 := res.Vectors[0]
	if !almost(math.Abs(v0[0]), 1/math.Sqrt2, 1e-10) ||
		!almost(math.Abs(v0[1]), 1/math.Sqrt2, 1e-10) {
		t.Fatalf("vector 0 = %v", v0)
	}
}

func TestSymmetricEigenDiagonal(t *testing.T) {
	m, _ := FromRows([][]float64{{5, 0, 0}, {0, -2, 0}, {0, 0, 3}})
	res, err := SymmetricEigen(m)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{5, 3, -2}
	for i, w := range want {
		if !almost(res.Values[i], w, 1e-12) {
			t.Fatalf("values = %v, want %v", res.Values, want)
		}
	}
}

func TestSymmetricEigenZeroMatrix(t *testing.T) {
	res, err := SymmetricEigen(NewMatrix(3, 3))
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range res.Values {
		if v != 0 {
			t.Fatalf("zero matrix eigenvalues = %v", res.Values)
		}
	}
}

func TestSymmetricEigenRejects(t *testing.T) {
	if _, err := SymmetricEigen(NewMatrix(2, 3)); err == nil {
		t.Fatal("non-square accepted")
	}
	asym, _ := FromRows([][]float64{{1, 2}, {5, 1}})
	if _, err := SymmetricEigen(asym); err == nil {
		t.Fatal("asymmetric accepted")
	}
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		m, _ := FromRows([][]float64{{1, bad}, {bad, 1}})
		if _, err := SymmetricEigen(m); err == nil {
			t.Fatalf("non-finite entry %g accepted", bad)
		}
	}
}

// reconstruct builds V diag(λ) Vᵀ from an eigen result.
func reconstruct(res *EigenResult) *Matrix {
	n := len(res.Values)
	out := NewMatrix(n, n)
	for k := 0; k < n; k++ {
		lam := res.Values[k]
		vec := res.Vectors[k]
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				out.Data[i*n+j] += lam * vec[i] * vec[j]
			}
		}
	}
	return out
}

func randomSymmetric(rng *rand.Rand, n int) *Matrix {
	m := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		for j := i; j < n; j++ {
			v := rng.NormFloat64()
			m.Set(i, j, v)
			m.Set(j, i, v)
		}
	}
	return m
}

func TestEigenReconstructionProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(8)
		m := randomSymmetric(rng, n)
		res, err := SymmetricEigen(m)
		if err != nil {
			return false
		}
		rec := reconstruct(res)
		scale := 1 + m.FrobeniusNorm()
		for i := range m.Data {
			if math.Abs(rec.Data[i]-m.Data[i]) > 1e-8*scale {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestEigenvectorsOrthonormalProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(6)
		res, err := SymmetricEigen(randomSymmetric(rng, n))
		if err != nil {
			return false
		}
		for a := 0; a < n; a++ {
			for b := a; b < n; b++ {
				d, _ := Dot(res.Vectors[a], res.Vectors[b])
				want := 0.0
				if a == b {
					want = 1
				}
				if math.Abs(d-want) > 1e-8 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestEigenvalueEquationProperty(t *testing.T) {
	// A v = λ v for every returned pair.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(6)
		m := randomSymmetric(rng, n)
		res, err := SymmetricEigen(m)
		if err != nil {
			return false
		}
		scale := 1 + m.FrobeniusNorm()
		for k := 0; k < n; k++ {
			av, err := m.MulVec(res.Vectors[k])
			if err != nil {
				return false
			}
			for i := range av {
				if math.Abs(av[i]-res.Values[k]*res.Vectors[k][i]) > 1e-7*scale {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestEigenLargeWellConditioned(t *testing.T) {
	// A Gram matrix XXᵀ is symmetric PSD; check values are non-negative
	// and the trace is preserved, at the pipeline's typical n=100.
	rng := rand.New(rand.NewSource(7))
	n := 100
	x := NewMatrix(n, 20)
	for i := range x.Data {
		x.Data[i] = rng.NormFloat64()
	}
	g, err := x.Mul(x.Transpose())
	if err != nil {
		t.Fatal(err)
	}
	res, err := SymmetricEigen(g)
	if err != nil {
		t.Fatal(err)
	}
	var trace, sum float64
	for i := 0; i < n; i++ {
		trace += g.At(i, i)
	}
	for _, v := range res.Values {
		if v < -1e-6*trace {
			t.Fatalf("PSD matrix produced negative eigenvalue %g", v)
		}
		sum += v
	}
	if !almost(trace, sum, 1e-6*trace) {
		t.Fatalf("trace %g != eigenvalue sum %g", trace, sum)
	}
}

func TestTopKEigenvectors(t *testing.T) {
	m, _ := FromRows([][]float64{{2, 1}, {1, 2}})
	res, _ := SymmetricEigen(m)
	top, err := TopKEigenvectors(res, 1)
	if err != nil {
		t.Fatal(err)
	}
	if top.Rows != 2 || top.Cols != 1 {
		t.Fatalf("shape = %dx%d", top.Rows, top.Cols)
	}
	if !almost(math.Abs(top.At(0, 0)), 1/math.Sqrt2, 1e-10) {
		t.Fatalf("top vector = %v", top.Data)
	}
	if _, err := TopKEigenvectors(res, 0); err == nil {
		t.Fatal("k=0 accepted")
	}
	if _, err := TopKEigenvectors(res, 3); err == nil {
		t.Fatal("k>n accepted")
	}
}

func TestEigenConvergenceReported(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	n := 12
	m := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		for j := i; j < n; j++ {
			v := rng.NormFloat64()
			m.Set(i, j, v)
			m.Set(j, i, v)
		}
	}
	res, err := SymmetricEigen(m)
	if err != nil {
		t.Fatal(err)
	}
	if res.Iterations < 1 || res.Iterations > qlMaxIter*n {
		t.Fatalf("iterations = %d out of [1,%d]", res.Iterations, qlMaxIter*n)
	}
}

func TestEigenDiagonalConvergesInZeroSweeps(t *testing.T) {
	m, _ := FromRows([][]float64{{4, 0}, {0, 1}})
	res, err := SymmetricEigen(m)
	if err != nil {
		t.Fatal(err)
	}
	if res.Iterations != 0 {
		t.Fatalf("diagonal input: iterations = %d, want 0", res.Iterations)
	}
}
