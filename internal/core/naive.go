package core

import (
	"fmt"

	"hpcnmf/internal/grid"
	"hpcnmf/internal/mat"
	"hpcnmf/internal/perf"
)

// RunNaive executes Naive-Parallel-NMF (Algorithm 2, after Fairbanks
// et al.): the data matrix is double-partitioned — processor i owns
// row block Ai (m/p×n) and column block Aⁱ (m×n/p) — and each
// iteration all-gathers the full W and H so every processor can solve
// its independent NLS block. The Gram matrices are computed
// redundantly on every rank. This is the communication-heavy baseline
// the paper improves upon.
//
// One kernel pool of Options.KernelThreads workers is shared by all p
// rank goroutines (a threaded BLAS under each MPI rank); each rank
// owns a private workspace arena, so the compute path of an iteration
// reuses its buffers instead of reallocating them.
func RunNaive(a Matrix, p int, opts Options) (*Result, error) {
	m, n := a.Dims()
	opts, err := opts.withDefaults(m, n)
	if err != nil {
		return nil, err
	}
	if p < 1 {
		return nil, fmt.Errorf("core: naive algorithm needs p ≥ 1, got %d", p)
	}
	if m < p || n < p {
		return nil, fmt.Errorf("core: %dx%d matrix cannot be split across %d processors", m, n, p)
	}
	return runLayout(fmt.Sprintf("Naive p=%d", p), m, n, trackedNorm(a, opts), opts, p, func(s *rankState) layout {
		return newNaiveLayout(s, a, p)
	})
}

// naiveLayout is Algorithm 2's double partition (Figure 1): both a row
// block and a column block of A live on each processor, next to the
// matching rows of W and columns of H.
type naiveLayout struct {
	*rankState
	m, n       int
	aRow, aCol Matrix
	wCounts    []int // per-rank words of W, the all-gather/gather layout
	hCounts    []int // per-rank words of Hᵀ

	hht  *mat.Dense // HHᵀ (redundant on every rank)
	wtw  *mat.Dense // WᵀW (redundant on every rank)
	aiht *mat.Dense // Ai·Hᵀ
	wtai *mat.Dense // Wᵀ·Aⁱ
}

func newNaiveLayout(s *rankState, a Matrix, p int) *naiveLayout {
	m, n := a.Dims()
	k := s.k
	r0, r1 := grid.BlockRange(m, p, s.rank)
	c0, c1 := grid.BlockRange(n, p, s.rank)
	s.initBlocks(r1-r0, r0, c1-c0, c0)
	return &naiveLayout{
		rankState: s,
		m:         m,
		n:         n,
		aRow:      a.Block(r0, r1, 0, n),
		aCol:      a.Block(0, m, c0, c1),
		wCounts:   grid.ScaleCounts(grid.BlockCounts(m, p), k),
		hCounts:   grid.ScaleCounts(grid.BlockCounts(n, p), k),
		hht:       mat.NewDense(k, k),
		wtw:       mat.NewDense(k, k),
		aiht:      mat.NewDense(r1-r0, k),
		wtai:      mat.NewDense(k, c1-c0),
	}
}

// assemble is the naive layout's one communication pattern, shared by
// both halves: all-gather one factor's blocks into the full rows×k
// panel and compute its Gram redundantly.
func (l *naiveLayout) assemble(send []float64, counts []int, rows int, gram *mat.Dense) *mat.Dense {
	ps := l.led.Start(perf.TaskAllGather)
	panel := &mat.Dense{Rows: rows, Cols: l.k, Data: l.c.AllGatherV(send, counts)}
	l.led.Stop(ps, 0)
	ps = l.led.Start(perf.TaskGram)
	mat.ParGramTo(gram, panel, l.pool)
	l.led.Stop(ps, gramFlops(rows, l.k))
	return panel
}

// wHalf is Algorithm 2, lines 3-4: all-gather H, then HHᵀ and Ai·Hᵀ,
// then the update of Wi.
func (l *naiveLayout) wHalf() error {
	hT := l.assemble(l.ht.Data, l.hCounts, l.n, l.hht)
	ps := l.led.Start(perf.TaskMM)
	mulBtInto(l.aiht, l.aRow, hT, l.ws, l.pool) // Ai·Hᵀ, mi×k
	l.led.Stop(ps, 2*int64(l.aRow.NNZ())*int64(l.k))
	return l.updateW(l.hht, l.aiht, l.w)
}

// hHalf is Algorithm 2, lines 5-6's inputs: all-gather W, then WᵀW
// and Wᵀ·Aⁱ.
func (l *naiveLayout) hHalf() (*mat.Dense, *mat.Dense) {
	w := l.assemble(l.w.Data, l.wCounts, l.m, l.wtw)
	ps := l.led.Start(perf.TaskMM)
	mulAtBInto(l.wtai, l.aCol, w, l.ws, l.pool) // Wᵀ·Aⁱ, k×ni
	l.led.Stop(ps, 2*int64(l.aCol.NNZ())*int64(l.k))
	return l.wtw, l.wtai
}

// gather concatenates the row blocks of W and of Hᵀ, which is already
// their global row-major order.
func (l *naiveLayout) gather(setup bool) (*mat.Dense, *mat.Dense) {
	wAll, hTAll := l.gatherBlocks(setup, l.wCounts, l.hCounts)
	if l.rank != 0 {
		return nil, nil
	}
	hT := &mat.Dense{Rows: l.n, Cols: l.k, Data: hTAll}
	return &mat.Dense{Rows: l.m, Cols: l.k, Data: wAll}, hT.T()
}
