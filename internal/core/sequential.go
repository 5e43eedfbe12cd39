package core

import (
	"fmt"

	"hpcnmf/internal/mat"
	"hpcnmf/internal/par"
	"hpcnmf/internal/perf"
	"hpcnmf/internal/trace"
)

// seqState holds the sequential driver's iteration buffers. Every
// matrix the loop touches is allocated once here (or drawn from the
// workspace arena), so a steady-state step performs no heap
// allocation at KernelThreads=1 with any built-in updater — BPP
// included, via its instance-held pivoting state — the property
// TestSequentialStepZeroAllocs pins. The NLS iterate for the W step is
// kept transposed (wt, k×m) across iterations: it is both the warm
// start and the in-place destination of the solve, and one TTo
// refreshes w from it.
type seqState struct {
	a    Matrix
	opts Options
	env  updateEnv
	ws   *mat.Workspace
	pool *par.Pool
	tr   *perf.Tracker
	clk  phaseClock
	tc   *trace.Tracer
	rm   runMetrics

	m, n, k int
	normA2  float64

	w  *mat.Dense // m×k
	wt *mat.Dense // k×m: Wᵀ, warm start and destination of the W solve
	h  *mat.Dense // k×n

	hGram     *mat.Dense // k×k = H·Hᵀ
	haveHGram bool       // hGram is current for h
	wtw       *mat.Dense // k×k = WᵀW
	aht       *mat.Dense // m×k = A·Hᵀ
	fw        *mat.Dense // k×m = (A·Hᵀ)ᵀ, the W-step right-hand side
	wta       *mat.Dense // k×n = Wᵀ·A

	relErr []float64
	iters  int
	done   bool

	// ooc, when non-nil, streams the two A-products from the tile
	// file's prefetch pipeline instead of in-core kernels (see
	// RunOutOfCore); a is then the same tiledMatrix.
	ooc *tiledMatrix
}

// newSeqState validates the options and allocates the run's buffers.
// The caller must close() the state to release the kernel pool.
func newSeqState(a Matrix, opts Options, tc *trace.Tracer) (*seqState, error) {
	m, n := a.Dims()
	opts, err := opts.withDefaults(m, n)
	if err != nil {
		return nil, err
	}
	k := opts.K
	ws := mat.NewWorkspace()
	pool := par.NewPool(opts.KernelThreads)
	tr := perf.NewTracker()
	clk := phaseClock{tr: tr, tc: tc}
	rm := newRunMetrics(opts.Metrics)
	s := &seqState{
		a:      a,
		opts:   opts,
		env:    newUpdateEnv(opts, ws, pool, clk, tr, rm),
		ws:     ws,
		pool:   pool,
		tr:     tr,
		clk:    clk,
		tc:     tc,
		rm:     rm,
		m:      m,
		n:      n,
		k:      k,
		normA2: a.SquaredFrobeniusNorm(),
		w:      localInitW(opts, m, 0),
		wt:     mat.NewDense(k, m),
		h:      localInitH(opts, n, 0),
		hGram:  mat.NewDense(k, k),
		wtw:    mat.NewDense(k, k),
		aht:    mat.NewDense(m, k),
		fw:     mat.NewDense(k, m),
		wta:    mat.NewDense(k, n),
		relErr: make([]float64, 0, opts.MaxIter),
	}
	s.w.TTo(s.wt)
	return s, nil
}

// close releases the kernel pool (a no-op at KernelThreads=1).
func (s *seqState) close() { s.pool.Close() }

// step runs one alternating iteration (Algorithm 1, lines 3-4) and
// records whether a convergence test fired in s.done.
func (s *seqState) step(it int) error {
	s.iters++
	itSpan := s.tc.BeginArg(trace.CatIter, "iteration", "iter", int64(it))
	// --- Update W given H (Algorithm 1, line 3) ---
	if !s.haveHGram {
		ps := s.clk.Start(perf.TaskGram)
		mat.ParGramTToWS(s.hGram, s.h, s.pool, s.ws)
		s.clk.Stop(ps)
		s.tr.AddFlops(perf.TaskGram, gramFlops(s.n, s.k))
		s.haveHGram = true
	}
	ps := s.clk.Start(perf.TaskMM)
	if s.ooc != nil {
		if err := s.ooc.streamMulABt(s.aht, s.h, s.ws, s.pool, s.tc); err != nil {
			s.clk.Stop(ps)
			return fmt.Errorf("core: streaming A·Hᵀ at iteration %d: %w", it, err)
		}
	} else {
		mulHtInto(s.aht, s.a, s.h, s.ws, s.pool) // m×k
	}
	s.clk.Stop(ps)
	s.tr.AddFlops(perf.TaskMM, 2*int64(s.a.NNZ())*int64(s.k))

	s.aht.TTo(s.fw)
	if err := s.env.updateFactor("W", s.hGram, s.fw, s.wt, s.opts.L2W, s.opts.L1W); err != nil {
		return fmt.Errorf("core: W update failed at iteration %d: %w", it, err)
	}
	s.wt.TTo(s.w)

	// --- Update H given W (Algorithm 1, line 4) ---
	ps = s.clk.Start(perf.TaskGram)
	mat.ParGramTo(s.wtw, s.w, s.pool)
	s.clk.Stop(ps)
	s.tr.AddFlops(perf.TaskGram, gramFlops(s.m, s.k))

	ps = s.clk.Start(perf.TaskMM)
	if s.ooc != nil {
		if err := s.ooc.streamMulAtB(s.wta, s.w, s.pool, s.tc); err != nil {
			s.clk.Stop(ps)
			return fmt.Errorf("core: streaming Wᵀ·A at iteration %d: %w", it, err)
		}
	} else {
		mulAtBInto(s.wta, s.a, s.w, s.ws, s.pool) // k×n
	}
	s.clk.Stop(ps)
	s.tr.AddFlops(perf.TaskMM, 2*int64(s.a.NNZ())*int64(s.k))

	// TolGrad measures stationarity of the alternating map: the
	// projected gradient of the H-subproblem at the PREVIOUS H
	// under the refreshed W (zero exactly when the alternation
	// has stopped moving; the post-solve gradient would be ~0
	// every iteration for exact solvers and measure nothing).
	pg, pgRef := 0.0, 0.0
	if s.opts.TolGrad > 0 {
		pg = projGradSq(s.wtw, s.wta, s.h, s.ws, s.pool)
		pgRef = s.wta.SquaredFrobeniusNorm()
	}

	if err := s.env.updateFactor("H", s.wtw, s.wta, s.h, s.opts.L2H, s.opts.L1H); err != nil {
		return fmt.Errorf("core: H update failed at iteration %d: %w", it, err)
	}

	// --- Objective via byproducts (DESIGN decision 4) ---
	s.haveHGram = false
	if s.opts.ComputeError {
		errSpan := s.tc.Begin(trace.CatPhase, "Err")
		ps = s.clk.Start(perf.TaskGram)
		mat.ParGramTToWS(s.hGram, s.h, s.pool, s.ws) // reused as next iteration's HHᵀ
		s.clk.Stop(ps)
		s.haveHGram = true
		s.tr.AddFlops(perf.TaskGram, gramFlops(s.n, s.k))
		ps = s.clk.Start(perf.TaskOther)
		e := relErrFrom(s.normA2, mat.Dot(s.wta, s.h), mat.Dot(s.wtw, s.hGram))
		s.clk.Stop(ps)
		errSpan.End()
		s.relErr = append(s.relErr, e)
		s.rm.ObserveRelErr(e)
		if shouldStop(s.relErr, s.opts.Tol) || gradConverged(s.opts.TolGrad, pg, pgRef) {
			s.done = true
		}
	}
	itSpan.End()
	return nil
}

// RunSequential factorizes A ≈ W·H on a single process with the ANLS
// framework (Algorithm 1): alternately solve the NLS subproblems for
// W (given HHᵀ and AHᵀ) and H (given WᵀW and WᵀA). It is the
// baseline the parallel algorithms are validated against: with the
// same seed they perform the same computation up to reduction order.
func RunSequential(a Matrix, opts Options) (*Result, error) {
	tsess := newTraceSession(opts, 1)
	var tc *trace.Tracer
	if tsess != nil {
		tc = tsess.Tracer(0)
	}
	s, err := newSeqState(a, opts, tc)
	if err != nil {
		return nil, err
	}
	defer s.close()
	return s.runLoop("Sequential", tsess)
}

// runLoop is the iteration loop shared by the in-core sequential
// driver and the out-of-core streaming driver: step until
// convergence or MaxIter, emitting progress and checkpoints, then
// assemble the Result.
func (s *seqState) runLoop(algorithm string, tsess *trace.Session) (*Result, error) {
	ckpt := newCheckpointer(s.opts, algorithm, s.m, s.n)
	setup := s.tr.Snapshot()
	pe := newProgressEmitter(s.opts.Progress, s.tr)
	for it := 0; it < s.opts.MaxIter && !s.done; it++ {
		if err := s.step(it); err != nil {
			return nil, err
		}
		pe.emit(s.iters, s.relErr)
		if ckpt.due(s.iters) && !s.done {
			if err := ckpt.writeErr(s.iters, s.relErr, s.w, s.h); err != nil {
				return nil, err
			}
		}
	}
	iterTracker := s.tr.Diff(setup)
	breakdown := perf.Aggregate(s.opts.Model, []*perf.Tracker{iterTracker}, nil).Scale(s.iters)
	s.rm.ObserveIterations(s.iters)
	res := &Result{
		W:          s.w,
		H:          s.h,
		RelErr:     s.relErr,
		Progress:   pe.collected(),
		Iterations: s.iters,
		Breakdown:  breakdown,
		PerRank:    perf.PerRank(s.opts.Model, []*perf.Tracker{iterTracker}, nil, s.iters),
		Algorithm:  algorithm,
	}
	if tsess != nil {
		res.Trace = tsess.Merge()
	}
	return res, nil
}
