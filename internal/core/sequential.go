package core

import (
	"hpcnmf/internal/mat"
	"hpcnmf/internal/par"
	"hpcnmf/internal/perf"
	"hpcnmf/internal/trace"
)

// productSource supplies the two data-matrix products of an iteration
// for a layout that holds all of A on one rank: from in-core kernels
// (inCore) or from streaming passes over a tile file (tiledMatrix).
type productSource interface {
	// mulABt computes dst = A·Hᵀ (m×k) for H of shape k×n.
	mulABt(dst, h *mat.Dense, ws *mat.Workspace, pool *par.Pool, tc *trace.Tracer) error
	// mulAtB computes dst = Wᵀ·A (k×n) for W of shape m×k.
	mulAtB(dst, w *mat.Dense, ws *mat.Workspace, pool *par.Pool, tc *trace.Tracer) error
}

// inCore is the productSource over a resident Matrix.
type inCore struct{ a Matrix }

func (c inCore) mulABt(dst, h *mat.Dense, ws *mat.Workspace, pool *par.Pool, _ *trace.Tracer) error {
	mulHtInto(dst, c.a, h, ws, pool)
	return nil
}

func (c inCore) mulAtB(dst, w *mat.Dense, ws *mat.Workspace, pool *par.Pool, _ *trace.Tracer) error {
	mulAtBInto(dst, c.a, w, ws, pool)
	return nil
}

// seqLayout is Algorithm 1: one rank holds A, W and H whole, so the
// Gram matrices are local products and nothing is communicated. It is
// deliberately not a 1×1 hpcLayout: halfStep's collectives allocate
// even on one rank, and the shared schedule would have to branch on
// its caller to skip them.
type seqLayout struct {
	*rankState
	src productSource
	nnz int64 // stored entries of A; 2·nnz·k flops per product

	wtw *mat.Dense // k×k = WᵀW
	aht *mat.Dense // m×k = A·Hᵀ
	wta *mat.Dense // k×n = Wᵀ·A
}

// newSeqLayout sizes the rank's blocks to the whole m×n problem.
func newSeqLayout(s *rankState, src productSource, m, n int, nnz int64) *seqLayout {
	s.initBlocks(m, 0, n, 0)
	return &seqLayout{
		rankState: s,
		src:       src,
		nnz:       nnz,
		wtw:       mat.NewDense(s.k, s.k),
		aht:       mat.NewDense(m, s.k),
		wta:       mat.NewDense(s.k, n),
	}
}

// wHalf is Algorithm 1, line 3's inputs: HHᵀ and A·Hᵀ.
func (l *seqLayout) wHalf() (*mat.Dense, *mat.Dense, error) {
	hht := l.localHGram()
	ps := l.clk.Start(perf.TaskMM)
	err := l.src.mulABt(l.aht, l.h, l.ws, l.pool, l.tc)
	l.clk.Stop(ps)
	l.tr.AddFlops(perf.TaskMM, 2*l.nnz*int64(l.k))
	return hht, l.aht, err
}

// hHalf is Algorithm 1, line 4's inputs: WᵀW and Wᵀ·A.
func (l *seqLayout) hHalf() (*mat.Dense, *mat.Dense, error) {
	ps := l.clk.Start(perf.TaskGram)
	mat.ParGramTo(l.wtw, l.w, l.pool)
	l.clk.Stop(ps)
	l.tr.AddFlops(perf.TaskGram, gramFlops(l.w.Rows, l.k))

	ps = l.clk.Start(perf.TaskMM)
	err := l.src.mulAtB(l.wta, l.w, l.ws, l.pool, l.tc)
	l.clk.Stop(ps)
	l.tr.AddFlops(perf.TaskMM, 2*l.nnz*int64(l.k))
	return l.wtw, l.wta, err
}

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
	return runLayout("Sequential", m, n, a.SquaredFrobeniusNorm(), opts, 0, func(s *rankState) layout {
		return newSeqLayout(s, inCore{a}, m, n, int64(a.NNZ()))
	})
}
