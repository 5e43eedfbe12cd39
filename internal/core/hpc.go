package core

import (
	"fmt"

	"hpcnmf/internal/costmodel"
	"hpcnmf/internal/grid"
	"hpcnmf/internal/mat"
	"hpcnmf/internal/mpi"
	"hpcnmf/internal/perf"
	"hpcnmf/internal/trace"
)

// GridProblem describes a rank-k factorization of a to the cost model:
// shape, stored-entry count, and the CSR itself when a is sparse (the
// model prices a sparse candidate at its heaviest block).
func GridProblem(a Matrix, k int) costmodel.Problem {
	m, n := a.Dims()
	csr, _ := UnwrapSparse(a)
	return costmodel.Problem{M: m, N: n, K: k, NNZ: int64(a.NNZ()), CSR: csr}
}

// RunParallelAuto runs HPC-NMF on row 0 of costmodel.Plan under
// Options.Model — the §5.2 grid-selection analysis as a procedure:
// the feasible pr×pc factorization of p with the minimum modeled
// per-iteration time, recorded with that forecast in Result.Grid,
// Result.GridAuto and Result.GridPredictedSeconds (compare the latter
// against the measured breakdown to audit the model). When the
// feasibility rule k ≤ min(m/pr, n/pc) rejects every factorization,
// row 0 is the closed-form grid.Choose and GridAuto stays false —
// small problems still run, they just can't be tuned.
func RunParallelAuto(a Matrix, p int, opts Options) (*Result, error) {
	m, n := a.Dims()
	opts, err := opts.withDefaults(m, n)
	if err != nil {
		return nil, err
	}
	ranked, infeasible := costmodel.Plan(GridProblem(a, opts.K), p,
		opts.Model)
	if len(ranked) == 0 {
		return nil, infeasible
	}
	res, err := RunCandidate(a, ranked[0], opts)
	if res != nil {
		res.GridAuto = infeasible == nil
	}
	return res, err
}

// factorSide is one half-step's geometry in the HPC skeleton: the two
// halves of Algorithm 3 are mirror images that differ only in which
// rows×k factor block they start from, which communicator assembles
// the factor panel, which one reduce-scatters the local product, and
// which kernel multiplies A against the panel. Capturing that as data
// is what makes the skeleton algorithm- and side-agnostic — halfStep
// below is the single communication schedule every updater runs under.
type factorSide struct {
	block       *mat.Dense // the local factor block (rows×k): its Gram, and the all-gather's send
	gatherComm  *mpi.Comm  // panel all-gathers run here
	reduceComm  *mpi.Comm  // product reduce-scatters run here
	gatherWords []int      // per-member words of the panel (rows·k)
	reduceWords []int      // per-member words of the scattered product (rows·k)
	panelRows   int        // rows of the assembled panel
	localGram   *mat.Dense // k×k local Gram contribution
	outRows     int        // rows of this rank's scattered product

	// multiply returns the local A·panel product in the reduce layout,
	// drawn from the rank workspace (halfStep puts it back), timing its
	// kernel under TaskMM.
	multiply func(panel *mat.Dense) *mat.Dense
}

// halfStep executes one half of Algorithm 3 over a side's geometry
// (lines 3-7 / 9-13) and returns the all-reduced k×k Gram and this
// rank's outRows×k share of the data product: the local Gram of the
// block, the block's all-gather into the factor panel, the Gram
// all-reduce, the multiply and the product's reduce-scatter, each a
// blocking call in that order.
func (r *hpcLayout) halfStep(s *factorSide) (gram, product *mat.Dense) {
	ps := r.led.Start(perf.TaskGram)
	mat.ParGramTo(s.localGram, s.block, r.pool)
	r.led.Stop(ps, gramFlops(s.block.Rows, r.k))

	ps = r.led.Start(perf.TaskAllGather)
	panel := &mat.Dense{Rows: s.panelRows, Cols: r.k, Data: s.gatherComm.AllGatherV(s.block.Data, s.gatherWords)}
	r.led.Stop(ps, 0)

	ps = r.led.Start(perf.TaskAllReduce)
	gram = &mat.Dense{Rows: r.k, Cols: r.k, Data: r.c.AllReduce(s.localGram.Data)}
	r.led.Stop(ps, 0)

	prod := s.multiply(panel)
	ps = r.led.Start(perf.TaskReduceScatter)
	product = &mat.Dense{Rows: s.outRows, Cols: r.k, Data: s.reduceComm.ReduceScatter(prod.Data, s.reduceWords)}
	r.led.Stop(ps, 0)
	r.ws.Put(prod)
	return gram, product
}

// RunHPC executes HPC-NMF (Algorithm 3) on a pr×pc processor grid.
// The data matrix is distributed as 2D blocks Aij (m/pr × n/pc); W is
// distributed row-wise with (Wi)j (m/p × k) on processor (i,j), and H
// column-wise with (Hj)i (k × n/p). Each alternating step costs two
// all-reduces of the k×k Gram matrices, an all-gather of the factor
// block within a grid row or column, and a reduce-scatter of the
// matrix-product contribution — O(log p) messages and, with the grid
// chosen per grid.Choose, O(√(mnk²/p)) words: the communication-
// optimal schedule of Theorem 5.1.
//
// Passing a 1D grid (pr = p, pc = 1) yields the paper's HPC-NMF-1D
// variant used for tall-skinny matrices.
//
// As in RunNaive, one kernel pool of Options.KernelThreads workers is
// shared by every rank goroutine and each rank owns a workspace arena
// for its iteration temporaries.
func RunHPC(a Matrix, g grid.Grid, opts Options) (*Result, error) {
	m, n := a.Dims()
	opts, err := opts.withDefaults(m, n)
	if err != nil {
		return nil, err
	}
	if g.PR < 1 || g.PC < 1 {
		return nil, fmt.Errorf("core: HPC-NMF needs a grid with pr ≥ 1 and pc ≥ 1, got %dx%d", g.PR, g.PC)
	}
	return RunCandidate(a, GridProblem(a, opts.K).Price(g, opts.Model), opts)
}

// RunCandidate runs Algorithm 3 on a priced grid — a row of
// costmodel.Plan or a Problem.Price — and records the price as
// Result.GridPredictedSeconds. RunHPC and RunParallelAuto are this
// with the price, respectively the plan, made for the caller; a caller
// that already holds the plan (`nmfrun -alg auto` prints it first)
// hands its row 0 here instead of planning again.
func RunCandidate(a Matrix, c costmodel.GridCandidate, opts Options) (*Result, error) {
	m, n := a.Dims()
	opts, err := opts.withDefaults(m, n)
	if err != nil {
		return nil, err
	}
	g := c.Grid
	if g.PR < 1 || g.PC < 1 || m < g.PR || n < g.PC {
		return nil, fmt.Errorf("core: %dx%d matrix cannot be split on a %dx%d grid", m, n, g.PR, g.PC)
	}
	res, err := runLayout(fmt.Sprintf("HPC-NMF %dx%d", g.PR, g.PC), m, n, trackedNorm(a, opts), opts, g.Size(),
		func(s *rankState) layout { return newHPCLayout(s, a, g) })
	if err != nil {
		return nil, err
	}
	res.Grid = g
	res.GridPredictedSeconds = c.Seconds
	return res, nil
}

// hpcLayout is Algorithm 3's distribution (Figure 2) on one rank:
// the 2D block Aij, (Wi)j and (Hj)i, and the two factorSides halfStep
// runs over them.
type hpcLayout struct {
	*rankState
	m, n int
	g    grid.Grid

	wSide, hSide *factorSide
	wta          *mat.Dense // the H side's product transposed: the H-solve RHS, k×cols
}

func newHPCLayout(s *rankState, a Matrix, g grid.Grid) *hpcLayout {
	m, n := a.Dims()
	k := s.k
	gi, gj := g.Coords(s.rank)

	// Block geometry (Figure 2): rows [r0,r1) × cols [c0,c1) of A;
	// within them, this rank's W piece covers rows
	// r0+BlockRange(mi,pc,gj) and its H piece covers columns
	// c0+BlockRange(nj,pr,gi).
	r0, r1 := grid.BlockRange(m, g.PR, gi)
	c0, c1 := grid.BlockRange(n, g.PC, gj)
	mi, nj := r1-r0, c1-c0
	wLo, wHi := grid.BlockRange(mi, g.PC, gj)
	hLo, hHi := grid.BlockRange(nj, g.PR, gi)
	s.initBlocks(wHi-wLo, r0+wLo, hHi-hLo, c0+hLo) // (Wi)j: m/p × k, (Hj)i: k × n/p
	aij := a.Block(r0, r1, c0, c1)

	// Row and column communicators (the "proc row"/"proc column"
	// collectives of lines 5, 7, 11, 13).
	rowComm := s.c.Sub(g.RowMembers(gi))
	colComm := s.c.Sub(g.ColMembers(gj))

	// Word counts for the v-variant collectives: k words per factor row.
	hWords := grid.ScaleCounts(grid.BlockCounts(nj, g.PR), k)
	wWords := grid.ScaleCounts(grid.BlockCounts(mi, g.PC), k)

	l := &hpcLayout{
		rankState: s,
		m:         m,
		n:         n,
		g:         g,
		wta:       mat.NewDense(k, hHi-hLo),
	}
	led, ws, pool := s.led, s.ws, s.pool
	d, csr := aij.storage()

	// The W half gathers Hᵀ panels down the processor column and
	// scatters A·Hᵀ rows across the processor row (lines 3-8); the
	// H half mirrors it (lines 9-14). Everything else about the
	// schedule is shared — see halfStep.
	mmFlops := 2 * int64(aij.NNZ()) * int64(k)
	l.wSide = &factorSide{
		block:       s.ht, // line 3: Uij = (Hj)i·(Hj)iᵀ, the Gram of (Hj)iᵀ
		gatherComm:  colComm,
		reduceComm:  rowComm,
		gatherWords: hWords,
		reduceWords: wWords,
		panelRows:   nj,
		localGram:   mat.NewDense(k, k),
		outRows:     wHi - wLo, // this rank's rows of A·Hᵀ
		multiply: func(panel *mat.Dense) *mat.Dense {
			ps := led.Start(perf.TaskMM)
			vij := ws.Get(mi, k)
			mulBtInto(vij, aij, panel, ws, pool) // Vij, mi×k
			led.Stop(ps, mmFlops)
			return vij
		},
	}
	l.hSide = &factorSide{
		block:       s.w, // line 9: Xij = (Wi)jᵀ·(Wi)j
		gatherComm:  rowComm,
		reduceComm:  colComm,
		gatherWords: wWords,
		reduceWords: hWords,
		panelRows:   mi,
		localGram:   mat.NewDense(k, k),
		outRows:     hHi - hLo, // this rank's columns of Wᵀ·A, transposed
		multiply: func(panel *mat.Dense) *mat.Dense {
			// Yijᵀ, nj×k: the reduce layout. The CSR kernel writes it
			// directly; the dense product is faster as k×nj plus one
			// transpose, charged to Other.
			yijT := ws.Get(nj, k)
			ps := led.Start(perf.TaskMM)
			if csr != nil {
				csr.MulAtBTo(yijT, panel, pool)
				led.Stop(ps, mmFlops)
				return yijT
			}
			yij := ws.Get(k, nj)
			mat.ParMulAtBTo(yij, panel, d, pool)
			led.Stop(ps, mmFlops)
			ps = led.StartQuiet(perf.TaskOther)
			yij.TTo(yijT)
			led.Stop(ps, 0)
			ws.Put(yij)
			return yijT
		},
	}
	if s.rank == 0 {
		s.led.Tracer.Begin(trace.CatPhase, fmt.Sprintf("grid %dx%d", g.PR, g.PC)).End()
	}
	return l
}

// wHalf is Algorithm 3, lines 3-8: HHᵀ and this rank's A·Hᵀ rows,
// then the update of (Wi)j.
func (l *hpcLayout) wHalf() error {
	hht, aht := l.halfStep(l.wSide)
	return l.updateW(hht, aht, l.w)
}

// hHalf is Algorithm 3, lines 9-13: WᵀW and this rank's WᵀA columns.
func (l *hpcLayout) hHalf() (*mat.Dense, *mat.Dense) {
	wtw, atw := l.halfStep(l.hSide)
	ps := l.led.StartQuiet(perf.TaskOther)
	atw.TTo(l.wta)
	l.led.Stop(ps, 0)
	return wtw, l.wta
}

// blockOf returns where world rank r's (Wi)j rows and (Hj)i columns
// sit in the global factors.
func (l *hpcLayout) blockOf(r int) (wOff, wRows, hOff, hRows int) {
	ri, rj := l.g.Coords(r)
	r0, r1 := grid.BlockRange(l.m, l.g.PR, ri)
	c0, c1 := grid.BlockRange(l.n, l.g.PC, rj)
	wLo, wHi := grid.BlockRange(r1-r0, l.g.PC, rj)
	hLo, hHi := grid.BlockRange(c1-c0, l.g.PR, ri)
	return r0 + wLo, wHi - wLo, c0 + hLo, hHi - hLo
}

// gather places every rank's blocks, received in rank order, at their
// global offsets.
func (l *hpcLayout) gather(setup bool) (*mat.Dense, *mat.Dense) {
	p, k := l.g.Size(), l.k
	wCounts, hCounts := make([]int, p), make([]int, p)
	for r := range wCounts {
		_, wRows, _, hRows := l.blockOf(r)
		wCounts[r], hCounts[r] = wRows*k, hRows*k
	}
	wAll, hTAll := l.gatherBlocks(setup, wCounts, hCounts)
	if l.rank != 0 {
		return nil, nil
	}
	w := mat.NewDense(l.m, k)
	hT := mat.NewDense(l.n, k)
	for r := range wCounts {
		wOff, wRows, hOff, hRows := l.blockOf(r)
		w.SetSubmatrix(wOff, 0, &mat.Dense{Rows: wRows, Cols: k, Data: wAll[:wCounts[r]]})
		wAll = wAll[wCounts[r]:]
		hT.SetSubmatrix(hOff, 0, &mat.Dense{Rows: hRows, Cols: k, Data: hTAll[:hCounts[r]]})
		hTAll = hTAll[hCounts[r]:]
	}
	return w, hT.T()
}
