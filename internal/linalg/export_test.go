package linalg

import "math"

// Test-only helpers: the Jacobi oracle and the matrix tests use them; the
// eigensolver does not.

// Identity returns the n×n identity matrix.
func Identity(n int) *Matrix {
	m := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		m.Set(i, i, 1)
	}
	return m
}

// MaxAbsOffDiag returns the largest |m[i][j]|, i≠j, for a square matrix.
// Zero for 1×1 matrices.
func (m *Matrix) MaxAbsOffDiag() float64 {
	var mx float64
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			if i == j {
				continue
			}
			if a := math.Abs(m.At(i, j)); a > mx {
				mx = a
			}
		}
	}
	return mx
}
