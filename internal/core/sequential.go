package core

import (
	"time"

	"hpcnmf/internal/mat"
	"hpcnmf/internal/perf"
)

// productSource is how a layout that holds all of A on one rank reads
// it: as consecutive row panels. A resident Matrix is one panel
// (inCore); a tile file is one panel per tile (tiledMatrix, ooc.go).
type productSource interface {
	// eachPanel makes one pass over A: it calls visit once per row
	// panel, in ascending row order, with the panel and the index r0
	// of its first row, and stops at the first error. The panel is
	// only valid during the call. A source of several panels yields
	// dense ones. wait is how long the pass was blocked on panels that
	// were not yet resident, by the source's own clock.
	eachPanel(visit func(a Matrix, r0 int) error) (wait time.Duration, err error)
}

// inCore is the productSource over a resident Matrix.
type inCore struct{ a Matrix }

func (c inCore) eachPanel(visit func(a Matrix, r0 int) error) (time.Duration, error) {
	return 0, visit(c.a, 0)
}

// seqLayout is Algorithm 1: one rank holds A, W and H whole, so the
// Gram matrices are local products and nothing is communicated. An
// iteration reads A once: the W half walks it panel by panel and, as
// soon as a block of rows of W is updated, folds it into WᵀW and Wᵀ·A
// while those rows of A are still at hand, so the H half has nothing
// left to read. At low k on an inline pool a block is a slice of
// foldBytes of a dense panel, which keeps that second read in L2;
// otherwise it is the whole panel. It is deliberately not a 1×1
// hpcLayout: halfStep's collectives allocate even on one rank, and the
// shared schedule would have to branch on its caller to skip them.
type seqLayout struct {
	*rankState
	src   productSource
	visit func(a Matrix, r0 int) error // l.panel, bound once: a step allocates no closure

	hp     mat.Packed // Hᵀ packed for the tile kernel, from a pass's first dense panel to its end
	packed bool
	wRows  mat.Dense  // view of the rows of w under the current block
	blk    mat.Dense  // view of the current fold block of a dense panel
	blkA   Matrix     // blk as the Matrix fold receives
	wtw    *mat.Dense // k×k = WᵀW
	wta    *mat.Dense // k×n = Wᵀ·A
}

// newSeqLayout sizes the rank's blocks to the whole m×n problem.
func newSeqLayout(s *rankState, src productSource, m, n int) *seqLayout {
	s.initBlocks(m, 0, n, 0)
	l := &seqLayout{
		rankState: s,
		src:       src,
		wtw:       mat.NewDense(s.k, s.k),
		wta:       mat.NewDense(s.k, n),
	}
	l.visit = l.panel
	l.blkA = WrapDense(&l.blk)
	return l
}

// wHalf is Algorithm 1, line 3, and the data products of line 4: one
// pass over A that leaves W updated and WᵀW, Wᵀ·A accumulated.
func (l *seqLayout) wHalf() error {
	l.localHGram() // HHᵀ for every panel's update
	l.wtw.Zero()
	l.wta.Zero()
	wait, err := l.src.eachPanel(l.visit)
	l.led.Add(perf.TaskTileWait, wait)
	if l.packed {
		l.hp.Release(l.ws)
		l.packed = false
	}
	return err
}

// foldBytes is the bytes of A in one fold block: the rows of a dense
// panel the W half finishes before it reads the next, so Wᵀ·A reads the
// block from L2, where A·Hᵀ left it, and not from memory. foldMaxK is
// the largest k it pays at: above it the k×n store of Wᵀ·A per block,
// and with more than one kernel worker the fork/join per block, cost
// more than the read saves. Measured constants, not options (DESIGN
// decision 15 has the table that placed them); they move no bit.
const (
	foldBytes = 3 << 19
	foldMaxK  = 16
)

// panel is the pass's work on the rows [r0, r0+rows) of A, one fold
// block at a time at low k on an inline pool, else in one piece. A CSR
// A is never split (productSource): its one panel is the whole of A.
func (l *seqLayout) panel(a Matrix, r0 int) error {
	d, dense := UnwrapDense(a)
	if !dense || l.k > foldMaxK || l.pool.Workers() > 1 {
		return l.fold(a, r0)
	}
	n := d.Cols
	step := max(1, foldBytes/(8*n))
	for b0 := 0; b0 < d.Rows; b0 += step {
		b1 := min(b0+step, d.Rows)
		l.blk = mat.Dense{Rows: b1 - b0, Cols: n, Data: d.Data[b0*n : b1*n]}
		if err := l.fold(l.blkA, r0+b0); err != nil {
			return err
		}
	}
	return nil
}

// fold is the pass's work on rows [r0, r0+rows) of A: A_b·Hᵀ, the W
// update of those rows against the shared HHᵀ, then wtw += W_bᵀ·W_b and
// wta += W_bᵀ·A_b. Both sums take their rows in ascending order through
// kernels that add each row's term to one running value per element,
// so the block and panel boundaries leave no trace in the result
// (DESIGN decision 15). A dense block multiplies against Hᵀ packed once
// per pass; for a CSR A the one block is all of A, and overwriting wta
// is accumulating into it.
func (l *seqLayout) fold(a Matrix, r0 int) error {
	rows, _ := a.Dims()
	l.wRows = mat.Dense{Rows: rows, Cols: l.k, Data: l.w.Data[r0*l.k : (r0+rows)*l.k]}
	d, dense := UnwrapDense(a)
	aht := l.ws.Get(rows, l.k)
	mmFlops := 2 * int64(a.NNZ()) * int64(l.k) // of either product with the block
	ps := l.led.Start(perf.TaskMM)
	if dense {
		if !l.packed {
			l.hp, l.packed = mat.PackCols(l.ws, l.ht), true
		}
		mat.ParMulPackedTo(aht, d, l.hp, l.pool)
	} else {
		mulBtInto(aht, a, l.ht, l.ws, l.pool)
	}
	l.led.Stop(ps, mmFlops)
	err := l.updateW(l.hGram, aht, &l.wRows)
	l.ws.Put(aht)
	if err != nil {
		return err
	}

	ps = l.led.Start(perf.TaskGram)
	mat.ParGramAddTo(l.wtw, &l.wRows, l.pool)
	l.led.Stop(ps, gramFlops(rows, l.k))

	ps = l.led.Start(perf.TaskMM)
	if dense {
		mat.ParMulAtBAddTo(l.wta, &l.wRows, d, l.pool)
	} else {
		mulAtBInto(l.wta, a, &l.wRows, l.ws, l.pool)
	}
	l.led.Stop(ps, mmFlops)
	return nil
}

// hHalf is Algorithm 1, line 4's inputs, which the W half's pass left
// behind.
func (l *seqLayout) hHalf() (*mat.Dense, *mat.Dense) { return l.wtw, l.wta }

func (l *seqLayout) gather(bool) (*mat.Dense, *mat.Dense) { return l.w, l.h }

// RunSequential factorizes A ≈ W·H on a single process with the ANLS
// framework (Algorithm 1): alternately solve the NLS subproblems for
// W (given HHᵀ and AHᵀ) and H (given WᵀW and WᵀA). It is the
// baseline the parallel algorithms are validated against: with the
// same seed they perform the same computation up to reduction order.
func RunSequential(a Matrix, opts Options) (*Result, error) {
	m, n := a.Dims()
	opts, err := opts.withDefaults(m, n)
	if err != nil {
		return nil, err
	}
	return runLayout("Sequential", m, n, trackedNorm(a, opts), opts, 0, func(s *rankState) layout {
		return newSeqLayout(s, inCore{a}, m, n)
	})
}
