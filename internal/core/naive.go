package core

import (
	"fmt"

	"hpcnmf/internal/grid"
	"hpcnmf/internal/mat"
	"hpcnmf/internal/mpi"
	"hpcnmf/internal/par"
	"hpcnmf/internal/perf"
	"hpcnmf/internal/trace"
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
	k := opts.K
	normA2 := a.SquaredFrobeniusNorm()

	rowCounts := grid.BlockCounts(m, p)
	colCounts := grid.BlockCounts(n, p)
	wWordCounts := grid.ScaleCounts(rowCounts, k)
	hWordCounts := grid.ScaleCounts(colCounts, k)

	world := mpi.NewWorld(p)
	tsess := newTraceSession(opts, p)
	world.SetTracing(tsess)
	world.SetMetrics(opts.Metrics)
	configureWorld(world, opts)
	algName := fmt.Sprintf("Naive p=%d", p)
	ckpt := newCheckpointer(opts, algName, m, n)
	rm := newRunMetrics(opts.Metrics)
	trackers := make([]*perf.Tracker, p)
	traffic := make([]*mpi.Counters, p)
	pool := par.NewPool(opts.KernelThreads)
	defer pool.Close()
	var res *Result

	body := func(c *mpi.Comm) {
		rank := c.Rank()
		tr := perf.NewTracker()
		clk := phaseClock{tr: tr, tc: c.Tracer()}
		trackers[rank] = tr

		r0, r1 := grid.BlockRange(m, p, rank)
		c0, c1 := grid.BlockRange(n, p, rank)
		// The double partition of Algorithm 2 (Figure 1): both a row
		// block and a column block of A live on each processor.
		aRow := a.Block(r0, r1, 0, n)
		aCol := a.Block(0, m, c0, c1)
		mi := r1 - r0
		ni := c1 - c0

		hi := localInitH(opts, ni, c0)
		wi := localInitW(opts, mi, r0)
		ws := mat.NewWorkspace()
		env := newUpdateEnv(opts, ws, pool, clk, tr, rm)

		// Per-rank iteration buffers, reused across iterations.
		// gatherFactors returns the full W (m×k) and Hᵀ (n×k) on rank
		// 0, nil elsewhere; with setup the traffic is charged to the
		// Setup category (in-loop checkpoint gathers).
		gatherFactors := func(setup bool) (*mat.Dense, *mat.Dense) {
			gv := c.GatherV
			if setup {
				gv = c.GatherVSetup
			}
			wAll := gv(0, wi.Data, wWordCounts)
			hTAll := gv(0, hi.T().Data, hWordCounts)
			if rank != 0 {
				return nil, nil
			}
			w := &mat.Dense{Rows: m, Cols: k, Data: wAll}
			hT := &mat.Dense{Rows: n, Cols: k, Data: hTAll}
			return w, hT
		}

		hiT := mat.NewDense(ni, k)  // (Hi)ᵀ, the all-gather send layout
		wit := mat.NewDense(k, mi)  // Wiᵀ: warm start and W-solve destination
		hGram := mat.NewDense(k, k) // HHᵀ (redundant on every rank)
		wtw := mat.NewDense(k, k)   // WᵀW (redundant on every rank)
		aiht := mat.NewDense(mi, k) // Ai·Hᵀ
		fw := mat.NewDense(k, mi)   // (Ai·Hᵀ)ᵀ
		wtai := mat.NewDense(k, ni) // Wᵀ·Aⁱ
		wi.TTo(wit)

		// assemble is the naive skeleton's one communication pattern,
		// shared by both halves: all-gather one factor's blocks into the
		// full rows×k panel and compute its Gram redundantly.
		assemble := func(send []float64, counts []int, rows int, gram *mat.Dense) *mat.Dense {
			ps := clk.Start(perf.TaskAllGather)
			panel := &mat.Dense{Rows: rows, Cols: k, Data: c.AllGatherV(send, counts)}
			clk.Stop(ps)
			ps = clk.Start(perf.TaskGram)
			mat.ParGramTo(gram, panel, pool)
			clk.Stop(ps)
			tr.AddFlops(perf.TaskGram, gramFlops(rows, k))
			return panel
		}

		relErr := make([]float64, 0, opts.MaxIter)
		iters := 0
		setupTr := tr.Snapshot()
		setupTraffic := c.Counters().Snapshot()
		var pe *progressEmitter
		if rank == 0 {
			pe = newProgressEmitter(opts.Progress, tr)
		}
		for it := 0; it < opts.MaxIter; it++ {
			iters++
			itSpan := c.Tracer().BeginArg(trace.CatIter, "iteration", "iter", int64(it))
			// --- Compute W given H (lines 3-4) ---
			hi.TTo(hiT)
			hT := assemble(hiT.Data, hWordCounts, n, hGram) // HHᵀ redundantly

			ps := clk.Start(perf.TaskMM)
			mulBtInto(aiht, aRow, hT, ws, pool) // Ai·Hᵀ, mi×k
			clk.Stop(ps)
			tr.AddFlops(perf.TaskMM, 2*int64(aRow.NNZ())*int64(k))

			aiht.TTo(fw)
			if serr := env.updateFactor("W", hGram, fw, wit, opts.L2W, opts.L1W); serr != nil {
				panic(fmt.Sprintf("core: naive W update failed at iteration %d: %v", it, serr))
			}
			wit.TTo(wi)

			// --- Compute H given W (lines 5-6) ---
			w := assemble(wi.Data, wWordCounts, m, wtw)

			ps = clk.Start(perf.TaskMM)
			mulAtBInto(wtai, aCol, w, ws, pool) // Wᵀ·Aⁱ, k×ni
			clk.Stop(ps)
			tr.AddFlops(perf.TaskMM, 2*int64(aCol.NNZ())*int64(k))

			// Stationarity measure for TolGrad: gradient at the old
			// Hi under the refreshed W (see RunSequential).
			pgLocal, pgRefLocal := 0.0, 0.0
			if opts.TolGrad > 0 {
				pgLocal = projGradSq(wtw, wtai, hi, ws, pool)
				pgRefLocal = wtai.SquaredFrobeniusNorm()
			}

			if serr := env.updateFactor("H", wtw, wtai, hi, opts.L2H, opts.L1H); serr != nil {
				panic(fmt.Sprintf("core: naive H update failed at iteration %d: %v", it, serr))
			}

			// --- Objective (optional): local partials + one all-reduce ---
			if opts.ComputeError {
				errSpan := c.Tracer().Begin(trace.CatPhase, "Err")
				hiGram := ws.Get(k, k)
				ps = clk.Start(perf.TaskGram)
				mat.ParGramTToWS(hiGram, hi, pool, ws)
				clk.Stop(ps)
				tr.AddFlops(perf.TaskGram, gramFlops(ni, k))
				payload := []float64{mat.Dot(wtai, hi), mat.Dot(wtw, hiGram)}
				ws.Put(hiGram)
				if opts.TolGrad > 0 {
					payload = append(payload, pgLocal, pgRefLocal)
				}
				ps = clk.Start(perf.TaskAllReduce)
				parts := c.AllReduce(payload)
				clk.Stop(ps)
				errSpan.End()
				e := relErrFrom(normA2, parts[0], parts[1])
				relErr = append(relErr, e)
				if rank == 0 {
					rm.ObserveRelErr(e)
				}
				pg, pgRef := 0.0, 0.0
				if opts.TolGrad > 0 {
					pg, pgRef = parts[2], parts[3]
				}
				if shouldStop(relErr, opts.Tol) || gradConverged(opts.TolGrad, pg, pgRef) {
					itSpan.End()
					pe.emit(iters, relErr)
					break
				}
			}
			itSpan.End()
			pe.emit(iters, relErr)

			// --- Periodic checkpoint (collective; schedule is uniform
			// across ranks because iters advances in lockstep) ---
			if ckpt.due(iters) {
				w, hT := gatherFactors(true)
				if rank == 0 {
					ckpt.write(iters, relErr, w, hT.T())
				}
			}
		}
		// Freeze the measured iteration window before the final
		// gather adds unrelated traffic.
		trackers[rank] = tr.Diff(setupTr)
		traffic[rank] = c.Counters().Diff(setupTraffic)

		// --- Gather factors on rank 0 (outside the measured loop) ---
		w, hT := gatherFactors(false)
		if rank == 0 {
			res = &Result{
				W:          w,
				H:          hT.T(),
				RelErr:     relErr,
				Progress:   pe.collected(),
				Iterations: iters,
				Algorithm:  algName,
			}
		}
	}
	if err := safely(func() { world.Run(body) }); err != nil {
		return nil, err
	}
	res.Breakdown = perf.Aggregate(opts.Model, trackers, traffic).Scale(res.Iterations)
	res.PerRank = perf.PerRank(opts.Model, trackers, traffic, res.Iterations)
	rm.ObserveIterations(res.Iterations)
	if tsess != nil {
		res.Trace = tsess.Merge()
	}
	return res, nil
}
