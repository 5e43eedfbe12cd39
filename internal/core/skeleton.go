// Package core implements the paper's algorithms — the sequential ANLS
// framework (Algorithm 1), Naive-Parallel-NMF (Algorithm 2), and
// HPC-NMF (Algorithm 3) on 1D and 2D processor grids — over the
// simulated MPI runtime, as one skeleton, three layouts and one
// panel iterator (DESIGN decision 14).
//
// The skeleton (this file) is the alternating iteration the three
// algorithms share. rankState.step is one iteration on one rank: the
// local W update (Algorithm 1 line 3, Algorithm 2 line 4, Algorithm 3
// line 8), the local H update (lines 4, 6 and 14), the objective from
// Gram by-products with the scalar all-reduce of §5 when there are
// ranks to sum over, and the Tol and TolGrad stop tests. runLayout is
// the run loop around it — world set-up, progress, checkpoint cadence,
// the measured window, Result assembly — and the only one: every
// entry point (RunSequential, RunOutOfCore, RunNaive, RunHPC) calls it.
//
// A layout is what is left: where A, W and H live and which
// collectives bring the k×k Gram and the data product of each half
// together. seqLayout (sequential.go) holds everything on one rank
// and communicates nothing; naiveLayout (naive.go) is Algorithm 2
// lines 3 and 5, all-gathering each factor whole and computing its
// Gram redundantly; hpcLayout (hpc.go) is Algorithm 3 lines 3-7 and
// 9-13, the all-reduce / all-gather / reduce-scatter schedule of
// halfStep. seqLayout reads A through a productSource, one row panel
// at a time: the whole resident matrix, or the tiles of a tile file
// (ooc.go). Sequential is not run as a 1×1 hpcLayout because
// halfStep's collectives allocate even on one rank, and the
// zero-allocation step is a contract (TestSequentialStepZeroAllocs).
//
// All layouts share one set of local kernels and one initialization
// scheme, so for a given seed they perform the same computation up to
// floating-point reduction order — the property the paper relies on
// for fair comparison (§6.1.3).
package core

import (
	"fmt"
	"time"

	"hpcnmf/internal/mat"
	"hpcnmf/internal/mpi"
	"hpcnmf/internal/par"
	"hpcnmf/internal/perf"
	"hpcnmf/internal/trace"
)

// layout is what distinguishes Algorithms 1, 2 and 3 once the
// alternating iteration itself is shared: where A, W and H live and
// which collectives surround the two data products. Everything else —
// the local updates, the objective, the stop tests, progress,
// checkpoints, accounting — is rankState.step and runLayout.
type layout interface {
	// wHalf brings together the global H·Hᵀ (k×k) and this rank's rows
	// of A·Hᵀ and hands them to rankState.updateW — all rows at once,
	// or row block by row block as they become available: the rows of
	// W are independent NLS problems (§4), so the blocking cannot
	// change a bit of the result.
	wHalf() error
	// hHalf returns the global Wᵀ·W (k×k) and this rank's columns of
	// Wᵀ·A (k×cols): everything the H update needs.
	hHalf() (wtw, wta *mat.Dense)
	// gather returns the full W (m×k) and H (k×n) on rank 0, nil
	// elsewhere. It is collective; with setup the traffic is charged
	// to the Setup category (in-loop checkpoint gathers), keeping the
	// measured per-iteration traffic clean.
	gather(setup bool) (w, h *mat.Dense)
}

// rankState is one rank's share of a run: its instruments, its blocks
// of W and H, and the buffers the shared step needs. Every matrix the
// step touches is allocated once here (or drawn from the workspace
// arena), so with a layout that does not communicate a steady-state
// step performs no heap allocation at KernelThreads=1 with any
// built-in updater — TestSequentialStepZeroAllocs and
// TestOutOfCoreStepZeroAllocs pin that.
type rankState struct {
	opts Options
	lay  layout
	c    *mpi.Comm // nil when the layout has no communicator
	rank int
	env  updateEnv
	ws   *mat.Workspace
	pool *par.Pool
	led  *rankBooks // every time, flop, span and live counter of the rank

	k int
	// normA2 is the run's future of ‖A‖²_F, shared by its ranks. step
	// calls it under ComputeError only, at the objective after the
	// first W half, so the sum may still be running until then: on its
	// own goroutine in core (trackedNorm), on the loader's first pass
	// out of core (RunOutOfCore).
	normA2 func() float64

	w  *mat.Dense // rows×k block of W
	h  *mat.Dense // k×cols block of H
	ht *mat.Dense // cols×k = hᵀ, refreshed once after every H update

	hGram     *mat.Dense // k×k = h·hᵀ of the local block
	haveHGram bool       // hGram is current for h

	// hist is the error history the stop test reads: a resumed run's
	// checkpointed entries, then one per iteration of this run.
	hist  []float64
	iters int
	done  bool
}

// newRankState builds a rank's instruments over the run's shared
// kernel pool and its own copy of the run's books. opts must be
// post-withDefaults; c and tc may be nil. The layout sizes the factor
// blocks afterwards with initBlocks.
func newRankState(opts Options, normA2 func() float64, pool *par.Pool, led rankBooks, c *mpi.Comm, tc *trace.Tracer) *rankState {
	ws := mat.NewWorkspace()
	led.Ledger = &perf.Ledger{Tracer: tc}
	s := &rankState{
		opts:   opts,
		c:      c,
		env:    newUpdateEnv(opts, ws, pool, &led),
		ws:     ws,
		pool:   pool,
		led:    &led,
		k:      opts.K,
		normA2: normA2,
		hGram:  mat.NewDense(opts.K, opts.K),
		hist:   append(make([]float64, 0, len(opts.ckptRelErr)+opts.MaxIter), opts.ckptRelErr...),
	}
	if c != nil {
		s.rank = c.Rank()
	}
	return s
}

// relErr is this run's part of the error history.
func (s *rankState) relErr() []float64 { return s.hist[len(s.opts.ckptRelErr):] }

// initBlocks allocates this rank's factor blocks: rows of W starting
// at global row rowOff and cols of H starting at global column colOff,
// and H's transpose beside them.
func (s *rankState) initBlocks(rows, rowOff, cols, colOff int) {
	s.w = localInitW(s.opts, rows, rowOff)
	s.h = localInitH(s.opts, cols, colOff)
	s.ht = s.h.T()
}

// updateW is the local W update (Algorithm 1 line 3, Algorithm 2 line
// 4, Algorithm 3 line 8) of w — this rank's block of W, or consecutive
// rows of it — given the global H·Hᵀ and the matching rows of A·Hᵀ.
// The updater works on transposed operands (the rows of W are the
// columns of its iterate), so the block goes through two workspace
// buffers and back. The three transposes are charged to Other: left
// dark, they and updateFactor's factor scan were 6 % of a sparse BPP
// step at k = 20 (DESIGN decision 19).
func (s *rankState) updateW(hht, aht, w *mat.Dense) error {
	ps := s.led.StartQuiet(perf.TaskOther)
	fw, wt := s.ws.Get(s.k, w.Rows), s.ws.Get(s.k, w.Rows)
	aht.TTo(fw)
	w.TTo(wt)
	s.led.Stop(ps, 0)
	err := s.env.updateFactor("W", hht, fw, wt, s.opts.L2W, s.opts.L1W)
	if err == nil {
		ps = s.led.StartQuiet(perf.TaskOther)
		wt.TTo(w)
		s.led.Stop(ps, 0)
	}
	s.ws.Put(fw)
	s.ws.Put(wt)
	return err
}

// localHGram returns h·hᵀ of this rank's H block — the Gram of ht —
// recomputing it only when h changed since the last call: the Gram the
// objective needs at the end of one iteration is the one a single-rank
// W half needs at the start of the next.
func (s *rankState) localHGram() *mat.Dense {
	if !s.haveHGram {
		ps := s.led.Start(perf.TaskGram)
		mat.ParGramTo(s.hGram, s.ht, s.pool)
		s.led.Stop(ps, gramFlops(s.ht.Rows, s.k))
		s.haveHGram = true
	}
	return s.hGram
}

// gatherBlocks collects every rank's W block and Hᵀ block (ht) on
// rank 0 in rank order (nil elsewhere); the layouts reassemble the full
// factors from them.
func (s *rankState) gatherBlocks(setup bool, wCounts, hCounts []int) (wAll, hTAll []float64) {
	gv := s.c.GatherV
	if setup {
		gv = s.c.GatherVSetup
	}
	return gv(0, s.w.Data, wCounts), gv(0, s.ht.Data, hCounts)
}

// step runs one alternating iteration — line 3-4 of Algorithm 1, 3-6
// of Algorithm 2, 3-14 of Algorithm 3, with the layout supplying the
// Gram matrices and data products — and records in s.done whether a
// convergence test fired. It charges its own wall time to the ledger,
// so what the phases inside it leave uncharged is a number, and
// flushes the ledger to the live counters.
func (s *rankState) step(it int) error {
	start := time.Now()
	s.iters++
	tc := s.led.Tracer
	itSpan := tc.BeginArg(trace.CatIter, "iteration", "iter", int64(it))
	// --- Update W given H ---
	if err := s.lay.wHalf(); err != nil {
		return fmt.Errorf("core: W update failed at iteration %d: %w", it, err)
	}

	// --- Update H given W ---
	wtw, wta := s.lay.hHalf()
	// TolGrad measures stationarity of the alternating map: the
	// projected gradient of the H-subproblem at the PREVIOUS H under
	// the refreshed W (zero exactly when the alternation has stopped
	// moving; the post-solve gradient would be ~0 every iteration for
	// exact solvers and measure nothing).
	pg, pgRef := 0.0, 0.0
	if s.opts.TolGrad > 0 {
		pg = projGradSq(wtw, wta, s.h, s.ws, s.pool)
		pgRef = wta.SquaredFrobeniusNorm()
	}
	if err := s.env.updateFactor("H", wtw, wta, s.h, s.opts.L2H, s.opts.L1H); err != nil {
		return fmt.Errorf("core: H update failed at iteration %d: %w", it, err)
	}
	// Every later reader of H — the next W half's Gram, all-gather and
	// product, the checkpoint gather — reads ht: one transpose per H
	// update, charged to Other like updateW's (DESIGN decision 19).
	ps := s.led.StartQuiet(perf.TaskOther)
	s.h.TTo(s.ht)
	s.led.Stop(ps, 0)
	s.haveHGram = false

	// --- Objective via byproducts (DESIGN decision 4): local partials,
	// summed by the "global aggregation for residual" of §5 — one
	// scalar all-reduce — when the layout has ranks to sum over. ---
	if s.opts.ComputeError {
		errSpan := tc.Begin(trace.CatPhase, "Err")
		hGram := s.localHGram()
		// The local sums are timed (as Other) only when they are the
		// whole reduction; with a communicator the breakdown attributes
		// the objective to its all-reduce, as TestReportGolden pins.
		// Any wait for ‖A‖²_F, still being summed in the first
		// iteration, is charged the same way, never left dark.
		var cross, quad, normA2 float64
		if s.c == nil {
			ps := s.led.Start(perf.TaskOther)
			cross, quad, normA2 = mat.Dot(wta, s.h), mat.Dot(wtw, hGram), s.normA2()
			s.led.Stop(ps, 0)
		} else {
			payload := []float64{mat.Dot(wta, s.h), mat.Dot(wtw, hGram)}
			if s.opts.TolGrad > 0 {
				payload = append(payload, pg, pgRef)
			}
			ps := s.led.Start(perf.TaskAllReduce)
			parts := s.c.AllReduce(payload)
			normA2 = s.normA2()
			s.led.Stop(ps, 0)
			cross, quad = parts[0], parts[1]
			if s.opts.TolGrad > 0 {
				pg, pgRef = parts[2], parts[3]
			}
		}
		errSpan.End()
		e := relErrFrom(normA2, cross, quad)
		s.hist = append(s.hist, e)
		if s.rank == 0 {
			s.led.relErr.Set(e) // one writer, not p identical ones
		}
		s.done = shouldStop(s.hist, s.opts.Tol) || gradConverged(s.opts.TolGrad, pg, pgRef)
	}
	itSpan.End()
	s.led.Step += time.Since(start)
	s.led.flush()
	return nil
}

// runLayout is the one run loop behind every entry point: it owns the
// trace session, the checkpointer, the shared kernel pool and — when
// the layout spans p ≥ 1 communicating ranks — the mpi.World; steps
// every rank until a stop test fires or MaxIter, emitting progress
// from rank 0 and checkpoints on the CheckpointEvery cadence; and
// assembles the Result. p = 0 runs a single rank with no communicator
// on the calling goroutine. build constructs one rank's layout and
// must call initBlocks on the rankState it is handed. opts must be
// post-withDefaults.
func runLayout(algorithm string, m, n int, normA2 func() float64, opts Options, p int, build func(*rankState) layout) (*Result, error) {
	ranks := max(p, 1)
	tsess := newTraceSession(opts, ranks)
	ckpt := newCheckpointer(opts, algorithm, m, n)
	books := newRankBooks(opts.Metrics)
	pool := par.NewPool(opts.KernelThreads)
	defer pool.Close()
	// Joins the ‖A‖²_F sum, so no goroutine outlives the run.
	defer normA2()
	ledgers := make([]*perf.Ledger, ranks) // each rank's measured window
	var traffic []*mpi.Counters            // stays nil without a communicator
	var res *Result

	body := func(c *mpi.Comm, tc *trace.Tracer) error {
		s := newRankState(opts, normA2, pool, books, c, tc)
		s.lay = build(s)
		setup := *s.led.Ledger
		var setupTraffic *mpi.Counters
		if c != nil {
			setupTraffic = c.Counters().Snapshot()
		}
		var pe *progressEmitter
		if s.rank == 0 {
			pe = newProgressEmitter(opts.Progress, s.led.Ledger)
		}
		for it := 0; it < opts.MaxIter && !s.done; it++ {
			if err := s.step(it); err != nil {
				return err
			}
			pe.emit(s.iters, s.relErr())
			// The checkpoint gather is collective; its schedule is
			// uniform across ranks because iters and done advance in
			// lockstep.
			if ckpt.due(s.iters) && !s.done {
				w, h := s.lay.gather(true)
				if s.rank == 0 {
					if err := ckpt.write(s.iters, s.hist, w, h); err != nil {
						return err
					}
				}
			}
		}
		// Freeze the measured iteration window before the final gather
		// adds unrelated traffic.
		window := s.led.Sub(setup)
		ledgers[s.rank] = &window
		if c != nil {
			traffic[s.rank] = c.Counters().Diff(setupTraffic)
		}
		w, h := s.lay.gather(false)
		if s.rank == 0 {
			res = &Result{
				W:          w,
				H:          h,
				RelErr:     s.relErr(),
				Progress:   pe.collected(),
				Iterations: s.iters,
				Algorithm:  algorithm,
			}
		}
		return nil
	}

	if p < 1 {
		var tc *trace.Tracer
		if tsess != nil {
			tc = tsess.Tracer(0)
		}
		if err := body(nil, tc); err != nil {
			return nil, err
		}
	} else {
		world := mpi.NewWorld(p)
		world.SetTracing(tsess)
		world.SetMetrics(opts.Metrics)
		if opts.Fault != nil {
			world.SetFault(opts.Fault.Hook())
		}
		if opts.CommDeadline != 0 { // < 0 disables the deadline
			world.SetDeadline(max(opts.CommDeadline, 0))
		}
		traffic = make([]*mpi.Counters, p)
		err := world.RunErr(func(c *mpi.Comm) {
			// A rank's error aborts the world; recordFailure keeps it
			// in the chain of the error every rank returns.
			if err := body(c, c.Tracer()); err != nil {
				panic(err)
			}
		})
		if err != nil {
			// The mpi.RankFailedError and its cause stay in the chain,
			// for errors.As/errors.Is.
			return nil, fmt.Errorf("core: parallel run failed: %w", err)
		}
	}
	res.ledgers = ledgers
	res.Breakdown = perf.Aggregate(opts.Model, ledgers, traffic).Scale(res.Iterations)
	res.PerRank = perf.PerRank(opts.Model, ledgers, traffic, res.Iterations)
	books.iterations.Set(float64(res.Iterations))
	if tsess != nil {
		res.Trace = tsess.Merge()
	}
	return res, nil
}
