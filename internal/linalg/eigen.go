package linalg

import (
	"fmt"
	"math"
	"sort"

	"jobgraph/internal/obs"
)

// Eigensolver convergence telemetry. The sweeps histogram keeps its
// historical name; it observes implicit-QL iterations per
// decomposition. A decomposition that exhausts qlMaxIter on some
// eigenvalue fails and counts as non-converged.
var (
	obsEigenRuns         = obs.Default().Counter("linalg.eigen.runs")
	obsEigenSweeps       = obs.Default().Histogram("linalg.eigen.sweeps")
	obsEigenNonConverged = obs.Default().Counter("linalg.eigen.nonconverged")
)

// EigenResult holds the eigendecomposition of a real symmetric matrix:
// A = V · diag(Values) · Vᵀ, with Values sorted in descending order and
// Vectors[k] the unit eigenvector for Values[k].
type EigenResult struct {
	Values  []float64
	Vectors [][]float64 // Vectors[k][i] = i-th component of eigenvector k

	// Iterations is the total number of implicit-QL iterations over all
	// eigenvalues: 0 for a diagonal input.
	Iterations int
}

// qlMaxIter bounds the implicit-QL iterations spent on one eigenvalue,
// as LAPACK's dsteqr does. Shifted QL on a symmetric tridiagonal
// converges cubically, so an eigenvalue typically takes one or two.
const qlMaxIter = 30

// SymmetricEigen computes all eigenvalues and eigenvectors of the real
// symmetric matrix a. The input is not modified.
//
// It is the classic two-phase method (the tred2/tql2 pair of EISPACK as
// published in JAMA): Householder reflections reduce a to tridiagonal
// form in 4/3·n³ flops and accumulate the orthogonal transform, then
// implicit QL with shifts diagonalises the tridiagonal, rotating the
// accumulated transform as it goes. QL converges to machine precision,
// so there is no tolerance to choose. Both phases work on the transpose
// of JAMA's V, so every inner loop streams over one contiguous row and
// the rows end as the eigenvectors.
func SymmetricEigen(a *Matrix) (*EigenResult, error) {
	if a.Rows != a.Cols {
		return nil, fmt.Errorf("linalg: eigen needs square matrix, got %dx%d", a.Rows, a.Cols)
	}
	for k, v := range a.Data {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("linalg: eigen needs finite matrix, got %g at (%d,%d)", v, k/a.Cols, k%a.Cols)
		}
	}
	if !a.IsSymmetric(1e-9 * (1 + a.FrobeniusNorm())) {
		return nil, fmt.Errorf("linalg: eigen needs symmetric matrix")
	}
	n := a.Rows
	w := a.Transpose() // w.Row(j) is column j of JAMA's V
	d := make([]float64, n)
	e := make([]float64, n)
	tred2(w, d, e)
	iters, err := tql2(w, d, e)
	obsEigenRuns.Add(1)
	obsEigenSweeps.Observe(float64(iters))
	if err != nil {
		obsEigenNonConverged.Add(1)
		return nil, err
	}

	// Stable descending order, so tied eigenvalues keep index order.
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(x, y int) bool { return d[order[x]] > d[order[y]] })
	res := &EigenResult{
		Values:     make([]float64, n),
		Vectors:    make([][]float64, n),
		Iterations: iters,
	}
	backing := make([]float64, n*n)
	for k, idx := range order {
		res.Values[k] = d[idx]
		res.Vectors[k] = backing[k*n : (k+1)*n : (k+1)*n]
		copy(res.Vectors[k], w.Row(idx))
	}
	return res, nil
}

// tred2 reduces the symmetric matrix held in w to tridiagonal form by
// Householder similarity transforms. On return d holds the diagonal,
// e[1:] the subdiagonal (e[0] = 0), and row j of w the j-th column of
// the orthogonal matrix V with Vᵀ·A·V tridiagonal. The loops are JAMA's
// with every V[r][c] read as w[c][r].
func tred2(w *Matrix, d, e []float64) {
	n := w.Rows
	for j := 0; j < n; j++ {
		d[j] = w.At(j, n-1)
	}
	for i := n - 1; i > 0; i-- {
		// Scale to avoid under/overflow.
		var scale, h float64
		for k := 0; k < i; k++ {
			scale += math.Abs(d[k])
		}
		if scale == 0 {
			e[i] = d[i-1]
			for j := 0; j < i; j++ {
				d[j] = w.At(j, i-1)
				w.Set(j, i, 0)
				w.Set(i, j, 0)
			}
			d[i] = h
			continue
		}

		// Generate the Householder vector.
		for k := 0; k < i; k++ {
			d[k] /= scale
			h += d[k] * d[k]
		}
		f := d[i-1]
		g := math.Sqrt(h)
		if f > 0 {
			g = -g
		}
		e[i] = scale * g
		h -= f * g
		d[i-1] = f - g
		for j := 0; j < i; j++ {
			e[j] = 0
		}

		// Apply the similarity transform to the remaining columns.
		wi := w.Row(i)
		for j := 0; j < i; j++ {
			f = d[j]
			wi[j] = f
			wj := w.Row(j)
			g = e[j] + wj[j]*f
			for k := j + 1; k <= i-1; k++ {
				g += wj[k] * d[k]
				e[k] += wj[k] * f
			}
			e[j] = g
		}
		f = 0
		for j := 0; j < i; j++ {
			e[j] /= h
			f += e[j] * d[j]
		}
		hh := f / (h + h)
		for j := 0; j < i; j++ {
			e[j] -= hh * d[j]
		}
		for j := 0; j < i; j++ {
			f = d[j]
			g = e[j]
			wj := w.Row(j)
			for k := j; k <= i-1; k++ {
				wj[k] -= f*e[k] + g*d[k]
			}
			d[j] = wj[i-1]
			wj[i] = 0
		}
		d[i] = h
	}

	// Accumulate the transforms.
	for i := 0; i < n-1; i++ {
		wi, wi1 := w.Row(i), w.Row(i+1)
		wi[n-1] = wi[i]
		wi[i] = 1
		if h := d[i+1]; h != 0 {
			for k := 0; k <= i; k++ {
				d[k] = wi1[k] / h
			}
			for j := 0; j <= i; j++ {
				wj := w.Row(j)
				var g float64
				for k := 0; k <= i; k++ {
					g += wi1[k] * wj[k]
				}
				for k := 0; k <= i; k++ {
					wj[k] -= g * d[k]
				}
			}
		}
		for k := 0; k <= i; k++ {
			wi1[k] = 0
		}
	}
	for j := 0; j < n; j++ {
		d[j] = w.At(j, n-1)
		w.Set(j, n-1, 0)
	}
	w.Set(n-1, n-1, 1)
	e[0] = 0
}

// tql2 diagonalises the symmetric tridiagonal matrix from tred2 by the
// QL method with implicit shifts, applying each rotation to the rows of
// w. On return d holds the (unsorted) eigenvalues and row j of w the
// eigenvector for d[j]. It returns the total number of QL iterations,
// or an error when one eigenvalue needs more than qlMaxIter.
func tql2(w *Matrix, d, e []float64) (int, error) {
	n := w.Rows
	for i := 1; i < n; i++ {
		e[i-1] = e[i]
	}
	e[n-1] = 0

	var f, tst1 float64
	const eps = 0x1p-52
	total := 0
	for l := 0; l < n; l++ {
		// Find a negligible subdiagonal element. e[n-1] is zero, so the
		// scan ends at n-1 at the latest.
		tst1 = math.Max(tst1, math.Abs(d[l])+math.Abs(e[l]))
		m := l
		for m < n-1 && math.Abs(e[m]) > eps*tst1 {
			m++
		}

		// If m == l, d[l] is already an eigenvalue; otherwise iterate.
		for iter := 0; m > l; iter++ {
			if iter == qlMaxIter {
				return total, fmt.Errorf("linalg: QL did not converge on eigenvalue %d after %d iterations", l, qlMaxIter)
			}
			total++

			// Compute the implicit shift.
			g := d[l]
			p := (d[l+1] - g) / (2 * e[l])
			r := math.Hypot(p, 1)
			if p < 0 {
				r = -r
			}
			d[l] = e[l] / (p + r)
			d[l+1] = e[l] * (p + r)
			dl1 := d[l+1]
			h := g - d[l]
			for i := l + 2; i < n; i++ {
				d[i] -= h
			}
			f += h

			// Implicit QL transformation.
			p = d[m]
			c, c2, c3 := 1.0, 1.0, 1.0
			el1 := e[l+1]
			var s, s2 float64
			for i := m - 1; i >= l; i-- {
				c3 = c2
				c2 = c
				s2 = s
				g = c * e[i]
				h = c * p
				r = math.Hypot(p, e[i])
				e[i+1] = s * r
				s = e[i] / r
				c = p / r
				p = c*d[i] - s*g
				d[i+1] = h + s*(c*g+s*d[i])
				// Accumulate the rotation into rows i and i+1.
				wi, wi1 := w.Row(i), w.Row(i+1)
				for k, vi := range wi {
					h = wi1[k]
					wi1[k] = s*vi + c*h
					wi[k] = c*vi - s*h
				}
			}
			p = -s * s2 * c3 * el1 * e[l] / dl1
			e[l] = s * p
			d[l] = c * p
			if math.Abs(e[l]) <= eps*tst1 {
				break
			}
		}
		d[l] += f
		e[l] = 0
	}
	return total, nil
}

// TopKEigenvectors returns the eigenvectors for the k largest eigenvalues
// as the columns of an n×k matrix — the spectral-embedding step of
// Ng–Jordan–Weiss clustering.
func TopKEigenvectors(res *EigenResult, k int) (*Matrix, error) {
	n := len(res.Values)
	if k < 1 || k > n {
		return nil, fmt.Errorf("linalg: k=%d out of range [1,%d]", k, n)
	}
	m := NewMatrix(n, k)
	for col := 0; col < k; col++ {
		for i := 0; i < n; i++ {
			m.Set(i, col, res.Vectors[col][i])
		}
	}
	return m, nil
}
