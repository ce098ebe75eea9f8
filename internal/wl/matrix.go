package wl

import (
	"fmt"

	"jobgraph/internal/linalg"
	"jobgraph/internal/obs"
	"jobgraph/internal/par"
)

// obsKernelPairs counts pairwise similarity evaluations (upper
// triangle including the diagonal) — the O(n²) term every scaling
// argument about the kernel matrix rests on. obsKernelAborts counts
// computations cancelled through MatrixOptions.OnRow.
var (
	obsKernelPairs  = obs.Default().Counter("wl.kernel_pairs")
	obsKernelAborts = obs.Default().Counter("wl.kernel_aborts")
)

// MatrixOptions configures the parallel kernel-matrix computation.
type MatrixOptions struct {
	// Workers bounds the row-band goroutines (<=0: GOMAXPROCS).
	Workers int
	// OnRow, when non-nil, is invoked serially after each completed row
	// with the number of rows finished so far and the total. Returning a
	// non-nil error cancels the computation: in-flight rows finish, all
	// workers drain, and SymMatrixFromCompactOpts returns a nil matrix
	// wrapping the callback's error. This is the hook for progress
	// reporting, deadlines, and cooperative cancellation.
	OnRow func(done, total int) error
}

// SymMatrixFromCompactOpts computes the normalized similarity matrix
// over feature vectors that share one label space — the data behind
// the paper's Figure 7 heat map. Entry (i, j) is Similarity(φ(Gi),
// φ(Gj)); the matrix is symmetric with unit diagonal, packed (call
// Dense where a full n² layout is required). Every pairwise product is
// a linear merge-join over sorted key arrays, and the values are
// bit-identical to Similarity over the map vectors: counts are exact
// integers, so summation order cannot change a kernel value.
//
// The O(n²) pairs are fanned out across opt.Workers goroutines. Workers
// own disjoint rows, so each upper-triangle cell (i <= j) is written
// exactly once and needs no locking.
func SymMatrixFromCompactOpts(vecs []CompactVector, opt MatrixOptions) (*linalg.SymMatrix, error) {
	n := len(vecs)
	if n == 0 {
		return nil, fmt.Errorf("wl: kernel matrix over zero vectors")
	}
	self := make([]float64, n)
	for i := range vecs {
		self[i] = vecs[i].SelfDot()
	}
	m := linalg.NewSymMatrix(n)

	// Row i owns columns j >= i (upper triangle), so rows write disjoint
	// cells. Rows are handed out one at a time, so long rows (small i)
	// and short rows (large i) balance across workers without a
	// precomputed schedule. On abort, in-flight rows finish and the
	// partial matrix is discarded.
	var onDone func(done, total int) error
	if opt.OnRow != nil {
		onDone = func(done, total int) error {
			if err := opt.OnRow(done, total); err != nil {
				return fmt.Errorf("wl: kernel matrix aborted after %d/%d rows: %w", done, total, err)
			}
			return nil
		}
	}
	err := par.For(n, opt.Workers, func(i int) error {
		for j := i; j < n; j++ {
			var s float64
			switch {
			case i == j:
				s = 1
			case self[i] == 0 && self[j] == 0:
				s = 1 // two empty graphs coincide
			case self[i] == 0 || self[j] == 0:
				s = 0
			default:
				s = normalizeKernel(vecs[i].Dot(vecs[j]), self[i], self[j])
			}
			m.Set(i, j, s)
		}
		return nil
	}, onDone)
	if err != nil {
		obsKernelAborts.Add(1)
		return nil, err
	}
	obsKernelPairs.Add(int64(n) * int64(n+1) / 2)
	return m, nil
}
