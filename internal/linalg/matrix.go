// Package linalg implements the small dense linear-algebra kernel needed
// by spectral clustering: row-major float64 matrices, vector operations
// and a Householder-plus-implicit-QL eigendecomposition for real
// symmetric matrices.
//
// The matrices in this pipeline are similarity matrices over job samples
// (typically 100×100, occasionally a few thousand square), so a dense,
// cache-friendly, allocation-conscious implementation on the standard
// library is the right tool; there is no need for sparse formats or
// BLAS-style blocking.
package linalg

import (
	"fmt"
	"math"
	"strings"
)

// Matrix is a dense row-major matrix.
type Matrix struct {
	Rows, Cols int
	Data       []float64 // len = Rows*Cols
}

// NewMatrix returns a zero matrix with the given shape.
// It panics when either dimension is non-positive: matrix shapes in this
// pipeline are derived from sample sizes that are validated upstream, so
// a bad shape is a programming error, not an input error.
func NewMatrix(rows, cols int) *Matrix {
	if rows <= 0 || cols <= 0 {
		panic(fmt.Sprintf("linalg: invalid shape %dx%d", rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// FromRows builds a matrix from a slice of equal-length rows.
func FromRows(rows [][]float64) (*Matrix, error) {
	if len(rows) == 0 || len(rows[0]) == 0 {
		return nil, fmt.Errorf("linalg: FromRows needs non-empty input")
	}
	m := NewMatrix(len(rows), len(rows[0]))
	for i, r := range rows {
		if len(r) != m.Cols {
			return nil, fmt.Errorf("linalg: row %d has %d cols, want %d", i, len(r), m.Cols)
		}
		copy(m.Data[i*m.Cols:(i+1)*m.Cols], r)
	}
	return m, nil
}

// At returns element (i, j).
func (m *Matrix) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns element (i, j).
func (m *Matrix) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Row returns a view (not a copy) of row i.
func (m *Matrix) Row(i int) []float64 { return m.Data[i*m.Cols : (i+1)*m.Cols] }

// Clone returns a deep copy of m.
func (m *Matrix) Clone() *Matrix {
	c := NewMatrix(m.Rows, m.Cols)
	copy(c.Data, m.Data)
	return c
}

// Transpose returns mᵀ as a new matrix.
func (m *Matrix) Transpose() *Matrix {
	t := NewMatrix(m.Cols, m.Rows)
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		for j, v := range row {
			t.Data[j*t.Cols+i] = v
		}
	}
	return t
}

// Mul returns the matrix product m·b.
func (m *Matrix) Mul(b *Matrix) (*Matrix, error) {
	if m.Cols != b.Rows {
		return nil, fmt.Errorf("linalg: shape mismatch %dx%d · %dx%d",
			m.Rows, m.Cols, b.Rows, b.Cols)
	}
	out := NewMatrix(m.Rows, b.Cols)
	// ikj loop order keeps the inner loop streaming over contiguous rows
	// of b and out, which matters for the O(n³) product.
	for i := 0; i < m.Rows; i++ {
		outRow := out.Row(i)
		aRow := m.Row(i)
		for k := 0; k < m.Cols; k++ {
			a := aRow[k]
			if a == 0 {
				continue
			}
			bRow := b.Row(k)
			for j, bv := range bRow {
				outRow[j] += a * bv
			}
		}
	}
	return out, nil
}

// MulVec returns the matrix-vector product m·x.
func (m *Matrix) MulVec(x []float64) ([]float64, error) {
	if m.Cols != len(x) {
		return nil, fmt.Errorf("linalg: shape mismatch %dx%d · %d-vector",
			m.Rows, m.Cols, len(x))
	}
	out := make([]float64, m.Rows)
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		var s float64
		for j, v := range row {
			s += v * x[j]
		}
		out[i] = s
	}
	return out, nil
}

// IsSymmetric reports whether m is square and symmetric within tol.
func (m *Matrix) IsSymmetric(tol float64) bool {
	if m.Rows != m.Cols {
		return false
	}
	for i := 0; i < m.Rows; i++ {
		for j := i + 1; j < m.Cols; j++ {
			if math.Abs(m.At(i, j)-m.At(j, i)) > tol {
				return false
			}
		}
	}
	return true
}

// FrobeniusNorm returns sqrt(Σ m[i][j]²).
func (m *Matrix) FrobeniusNorm() float64 {
	var s float64
	for _, v := range m.Data {
		s += v * v
	}
	return math.Sqrt(s)
}

// String renders the matrix for debugging, with %.4g elements.
func (m *Matrix) String() string {
	var b strings.Builder
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			if j > 0 {
				b.WriteByte(' ')
			}
			fmt.Fprintf(&b, "%8.4g", m.At(i, j))
		}
		b.WriteByte('\n')
	}
	return b.String()
}
