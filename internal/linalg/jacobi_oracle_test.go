package linalg_test

import (
	"fmt"
	"math"
	"sort"

	"jobgraph/internal/linalg"
)

// This file keeps the cyclic Jacobi eigensolver that linalg.SymmetricEigen
// used before Householder tridiagonalisation plus implicit QL replaced
// it. It is slow (O(n³) per sweep, several sweeps) but simple enough to
// verify from first principles, so the eigen-level and partition-level
// tests use it as the reference. Only the telemetry was dropped and the
// sweep count and convergence flag moved into jacobiResult.

// jacobiMaxSweeps bounds the number of full Jacobi sweeps. Cyclic Jacobi
// converges quadratically; well-conditioned similarity matrices finish in
// well under 20 sweeps even at n in the thousands.
const jacobiMaxSweeps = 64

// jacobiResult is a Jacobi decomposition: the eigenpairs plus the number
// of full sweeps executed and whether the off-diagonal mass dropped
// below the tolerance before the sweep cap.
type jacobiResult struct {
	*linalg.EigenResult
	Sweeps    int
	Converged bool
}

// jacobiEigen computes all eigenvalues and eigenvectors of the real
// symmetric matrix a using the cyclic Jacobi rotation method. The input
// is not modified. tol is the convergence threshold on the largest
// absolute off-diagonal element relative to the Frobenius norm; pass 0
// for the default (1e-12).
func jacobiEigen(a *linalg.Matrix, tol float64) (*jacobiResult, error) {
	if a.Rows != a.Cols {
		return nil, fmt.Errorf("linalg: eigen needs square matrix, got %dx%d", a.Rows, a.Cols)
	}
	if !a.IsSymmetric(1e-9 * (1 + a.FrobeniusNorm())) {
		return nil, fmt.Errorf("linalg: eigen needs symmetric matrix")
	}
	if tol <= 0 {
		tol = 1e-12
	}
	n := a.Rows
	m := a.Clone()
	v := linalg.Identity(n)

	scale := m.FrobeniusNorm()
	if scale == 0 {
		scale = 1 // zero matrix: eigenvalues all zero, identity vectors
	}

	sweeps := 0
	for ; sweeps < jacobiMaxSweeps; sweeps++ {
		off := m.MaxAbsOffDiag()
		if off <= tol*scale {
			break
		}
		for p := 0; p < n-1; p++ {
			for q := p + 1; q < n; q++ {
				apq := m.At(p, q)
				if math.Abs(apq) <= tol*scale/float64(n*n) {
					continue
				}
				jacobiRotate(m, v, p, q)
			}
		}
	}
	converged := m.MaxAbsOffDiag() <= tol*scale

	res := &linalg.EigenResult{
		Values:  make([]float64, n),
		Vectors: make([][]float64, n),
	}
	order := make([]int, n)
	for i := range order {
		order[i] = i
		res.Values[i] = m.At(i, i)
	}
	sort.Slice(order, func(x, y int) bool {
		return res.Values[order[x]] > res.Values[order[y]]
	})
	sortedVals := make([]float64, n)
	for k, idx := range order {
		sortedVals[k] = res.Values[idx]
		vec := make([]float64, n)
		for i := 0; i < n; i++ {
			vec[i] = v.At(i, idx) // columns of V are eigenvectors
		}
		res.Vectors[k] = vec
	}
	res.Values = sortedVals
	return &jacobiResult{EigenResult: res, Sweeps: sweeps, Converged: converged}, nil
}

// jacobiRotate applies one two-sided Jacobi rotation zeroing m[p][q],
// updating the accumulated eigenvector matrix v.
func jacobiRotate(m, v *linalg.Matrix, p, q int) {
	app := m.At(p, p)
	aqq := m.At(q, q)
	apq := m.At(p, q)

	// Rotation angle via the numerically stable t = sign(θ)/(|θ|+√(θ²+1)).
	theta := (aqq - app) / (2 * apq)
	var t float64
	if theta >= 0 {
		t = 1 / (theta + math.Sqrt(theta*theta+1))
	} else {
		t = -1 / (-theta + math.Sqrt(theta*theta+1))
	}
	c := 1 / math.Sqrt(t*t+1)
	s := t * c
	tau := s / (1 + c)

	n := m.Rows
	m.Set(p, p, app-t*apq)
	m.Set(q, q, aqq+t*apq)
	m.Set(p, q, 0)
	m.Set(q, p, 0)
	for i := 0; i < n; i++ {
		if i == p || i == q {
			continue
		}
		aip := m.At(i, p)
		aiq := m.At(i, q)
		m.Set(i, p, aip-s*(aiq+tau*aip))
		m.Set(p, i, m.At(i, p))
		m.Set(i, q, aiq+s*(aip-tau*aiq))
		m.Set(q, i, m.At(i, q))
	}
	for i := 0; i < n; i++ {
		vip := v.At(i, p)
		viq := v.At(i, q)
		v.Set(i, p, vip-s*(viq+tau*vip))
		v.Set(i, q, viq+s*(vip-tau*viq))
	}
}
