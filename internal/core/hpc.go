package core

import (
	"errors"
	"fmt"

	"hpcnmf/internal/costmodel"
	"hpcnmf/internal/grid"
	"hpcnmf/internal/mat"
	"hpcnmf/internal/mpi"
	"hpcnmf/internal/par"
	"hpcnmf/internal/partition"
	"hpcnmf/internal/perf"
	"hpcnmf/internal/trace"
)

// RunParallelAuto runs HPC-NMF with the grid chosen automatically:
// the cost-model autotuner (RunHPCAuto) when any factorization of p
// is feasible, falling back to the bandwidth heuristic grid.Choose
// when the feasibility rule (k ≤ min(m/pr, n/pc)) rejects every
// candidate — small problems still run, they just can't be tuned.
func RunParallelAuto(a Matrix, p int, opts Options) (*Result, error) {
	res, err := RunHPCAuto(a, p, opts)
	if errors.Is(err, grid.ErrNoFeasibleGrid) {
		m, n := a.Dims()
		return RunHPC(a, grid.Choose(m, n, p), opts)
	}
	return res, err
}

// RunHPCAuto runs HPC-NMF on the pr×pc factorization of p with the
// minimum modeled per-iteration time under Options.Model — the §5.2
// grid-selection analysis executed by costmodel.AutoGrid. The chosen
// grid and its forecast are recorded in Result.Grid and
// Result.GridPredictedSeconds; compare the latter against the
// measured breakdown to audit the model. Errors wrapping
// grid.ErrNoFeasibleGrid mean no factorization of p fits the problem
// shape at rank k.
func RunHPCAuto(a Matrix, p int, opts Options) (*Result, error) {
	m, n := a.Dims()
	o, err := opts.withDefaults(m, n)
	if err != nil {
		return nil, err
	}
	model := o.Model
	nnzPerRank := func(grid.Grid) int64 { return int64(a.NNZ()) / int64(p) }
	if s, ok := UnwrapSparse(a); ok {
		// Price each candidate at its heaviest 2D block: under skewed
		// sparsity the critical-path rank does max-block work, not the
		// average, and which grid concentrates the heavy rows differs
		// by candidate. O(nnz) per candidate, a handful of candidates.
		nnzPerRank = func(g grid.Grid) int64 {
			maxBlock := 0
			for _, row := range partition.BlockNNZ(s, g) {
				for _, b := range row {
					if b > maxBlock {
						maxBlock = b
					}
				}
			}
			return int64(maxBlock)
		}
	}
	g, _, err := costmodel.AutoGridWith(m, n, o.K, p,
		model.Alpha, model.Beta, model.Gamma, nnzPerRank)
	if err != nil {
		return nil, err
	}
	res, err := RunHPC(a, g, opts)
	if res != nil {
		res.GridAuto = true
	}
	return res, err
}

// factorSide is one half-step's geometry in the HPC skeleton: the two
// halves of Algorithm 3 are mirror images that differ only in which
// communicator assembles the factor panel, which one reduce-scatters
// the local product, and which kernel multiplies A against the panel.
// Capturing that as data is what makes the skeleton algorithm- and
// side-agnostic — halfStep below is the single communication schedule
// every updater runs under.
type factorSide struct {
	gatherComm   *mpi.Comm  // panel all-gathers run here
	reduceComm   *mpi.Comm  // product reduce-scatters run here
	gatherCounts []int      // per-member factor rows in the panel
	reduceCounts []int      // per-member product rows after the scatter
	panelRows    int        // rows of the assembled panel
	gramRows     int        // local vectors feeding the Gram (flop accounting)
	localGram    *mat.Dense // k×k local Gram contribution
	outRows      int        // rows of this rank's scattered product
	out          *mat.Dense // outRows×k product accumulator

	// gram fills localGram from the local factor block.
	gram func()
	// sendChunk returns factor columns [c0,c1) in the gather layout.
	sendChunk func(c0, c1 int) []float64
	// multiply returns the local A·panel product chunk in the reduce
	// layout, drawn from the rank workspace (halfStep puts it back),
	// timing its kernel under TaskMM.
	multiply func(panel *mat.Dense, kc int) *mat.Dense
}

// hpcRank is one rank's view of the shared skeleton: the instruments,
// arena, and pipeline chunking both factorSides run under.
type hpcRank struct {
	c       *mpi.Comm
	clk     phaseClock
	tr      *perf.Tracker
	ws      *mat.Workspace
	k       int
	chunk   int
	overlap bool
}

// halfStep executes one half of Algorithm 3 over a side's geometry and
// returns the all-reduced k×k Gram (lines 3-7 / 9-13): post the first
// panel chunk as a nonblocking all-gather so its rounds progress
// behind the local Gram product (overlap on), wait out the remainder,
// all-reduce the Gram, then pipeline the panel chunks through
// all-gather → local multiply → reduce-scatter into side.out —
// optionally blocked into column chunks (§5 memory/latency trade;
// Options.CommChunk). The payloads and schedule are identical with
// overlap on or off and for any chunking, so results are bitwise
// equal either way.
func (r *hpcRank) halfStep(s *factorSide) *mat.Dense {
	kc0 := min(r.chunk, r.k)
	var ag *mpi.Request
	if r.overlap {
		ag = s.gatherComm.IAllGatherV(s.sendChunk(0, kc0), grid.ScaleCounts(s.gatherCounts, kc0))
	}
	ps := r.clk.Start(perf.TaskGram)
	s.gram()
	r.clk.Stop(ps)
	r.tr.AddFlops(perf.TaskGram, gramFlops(s.gramRows, r.k))

	var panel0 *mat.Dense
	if ag != nil {
		ps = r.clk.Start(perf.TaskAllGather)
		panel0 = &mat.Dense{Rows: s.panelRows, Cols: kc0, Data: ag.Wait()}
		r.clk.Stop(ps)
	}

	ps = r.clk.Start(perf.TaskAllReduce)
	gram := &mat.Dense{Rows: r.k, Cols: r.k, Data: r.c.AllReduce(s.localGram.Data)}
	r.clk.Stop(ps)

	for c0 := 0; c0 < r.k; c0 += r.chunk {
		c1 := min(c0+r.chunk, r.k)
		kc := c1 - c0
		panel := panel0 // prefetched during the Gram product
		if c0 > 0 || panel == nil {
			ps = r.clk.Start(perf.TaskAllGather)
			panel = &mat.Dense{Rows: s.panelRows, Cols: kc, Data: s.gatherComm.AllGatherV(
				s.sendChunk(c0, c1), grid.ScaleCounts(s.gatherCounts, kc))}
			r.clk.Stop(ps)
		}
		prod := s.multiply(panel, kc)
		ps = r.clk.Start(perf.TaskReduceScatter)
		got := &mat.Dense{Rows: s.outRows, Cols: kc, Data: s.reduceComm.ReduceScatter(
			prod.Data, grid.ScaleCounts(s.reduceCounts, kc))}
		r.clk.Stop(ps)
		r.ws.Put(prod)
		s.out.SetSubmatrix(0, c0, got)
	}
	return gram
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
	if m < g.PR || n < g.PC {
		return nil, fmt.Errorf("core: %dx%d matrix cannot be split on a %dx%d grid", m, n, g.PR, g.PC)
	}
	p := g.Size()
	k := opts.K
	normA2 := a.SquaredFrobeniusNorm()
	pred := costmodel.HPCExact(m, n, k, g, int64(a.NNZ())/int64(p))

	world := mpi.NewWorld(p)
	tsess := newTraceSession(opts, p)
	world.SetTracing(tsess)
	world.SetMetrics(opts.Metrics)
	configureWorld(world, opts)
	algName := fmt.Sprintf("HPC-NMF %dx%d", g.PR, g.PC)
	ckpt := newCheckpointer(opts, algName, m, n)
	rm := newRunMetrics(opts.Metrics)
	trackers := make([]*perf.Tracker, p)
	traffic := make([]*mpi.Counters, p)
	pool := par.NewPool(opts.KernelThreads)
	defer pool.Close()
	var res *Result

	body := func(c *mpi.Comm) {
		rank := c.Rank()
		gi, gj := g.Coords(rank)
		tr := perf.NewTracker()
		clk := phaseClock{tr: tr, tc: c.Tracer()}

		// Block geometry (Figure 2): rows [r0,r1) × cols [c0,c1) of A;
		// within them, this rank's W piece covers rows
		// r0+BlockRange(mi,pc,gj) and its H piece covers columns
		// c0+BlockRange(nj,pr,gi).
		r0, r1 := grid.BlockRange(m, g.PR, gi)
		c0, c1 := grid.BlockRange(n, g.PC, gj)
		mi, nj := r1-r0, c1-c0
		wLo, wHi := grid.BlockRange(mi, g.PC, gj)
		hLo, hHi := grid.BlockRange(nj, g.PR, gi)

		aij := a.Block(r0, r1, c0, c1)
		wij := localInitW(opts, wHi-wLo, r0+wLo) // (Wi)j: m/p × k
		hij := localInitH(opts, hHi-hLo, c0+hLo) // (Hj)i: k × n/p
		ws := mat.NewWorkspace()
		env := newUpdateEnv(opts, ws, pool, clk, tr, rm)

		// Row and column communicators (the "proc row"/"proc column"
		// collectives of lines 5, 7, 11, 13).
		rowComm := c.Sub(g.RowMembers(gi))
		colComm := c.Sub(g.ColMembers(gj))

		// Row counts for the v-variant collectives (scaled by the
		// chunk width at each call).
		hRowCounts := grid.BlockCounts(nj, g.PR)
		wRowCounts := grid.BlockCounts(mi, g.PC)
		chunk := opts.CommChunk
		if chunk <= 0 || chunk > k {
			chunk = k
		}

		// Word counts and assembly for gathering the distributed
		// factors onto world rank 0 — used for the final result and,
		// when checkpointing is on, periodically inside the loop
		// (charged to Setup there, keeping the measured per-iteration
		// traffic clean).
		wWordCounts := make([]int, p)
		hWordCounts := make([]int, p)
		for r := 0; r < p; r++ {
			ri, rj := g.Coords(r)
			rmi := grid.BlockSize(m, g.PR, ri)
			rnj := grid.BlockSize(n, g.PC, rj)
			wWordCounts[r] = grid.BlockSize(rmi, g.PC, rj) * k
			hWordCounts[r] = grid.BlockSize(rnj, g.PR, ri) * k
		}
		// gatherFactors returns the full W (m×k) and Hᵀ (n×k) on world
		// rank 0, nil elsewhere.
		gatherFactors := func(setup bool) (*mat.Dense, *mat.Dense) {
			gv := c.GatherV
			if setup {
				gv = c.GatherVSetup
			}
			wAll := gv(0, wij.Data, wWordCounts)
			hTAll := gv(0, hij.T().Data, hWordCounts)
			if rank != 0 {
				return nil, nil
			}
			w := mat.NewDense(m, k)
			hT := mat.NewDense(n, k)
			wPos, hPos := 0, 0
			for r := 0; r < p; r++ {
				ri, rj := g.Coords(r)
				rr0, _ := grid.BlockRange(m, g.PR, ri)
				rc0, _ := grid.BlockRange(n, g.PC, rj)
				rmi := grid.BlockSize(m, g.PR, ri)
				rnj := grid.BlockSize(n, g.PC, rj)
				sLo, sHi := grid.BlockRange(rmi, g.PC, rj)
				block := &mat.Dense{Rows: sHi - sLo, Cols: k, Data: wAll[wPos : wPos+wWordCounts[r]]}
				w.SetSubmatrix(rr0+sLo, 0, block)
				wPos += wWordCounts[r]
				tLo, tHi := grid.BlockRange(rnj, g.PR, ri)
				hBlock := &mat.Dense{Rows: tHi - tLo, Cols: k, Data: hTAll[hPos : hPos+hWordCounts[r]]}
				hT.SetSubmatrix(rc0+tLo, 0, hBlock)
				hPos += hWordCounts[r]
			}
			return w, hT
		}

		// Per-rank iteration buffers, reused across iterations.
		uij := mat.NewDense(k, k)         // (Hj)i·(Hj)iᵀ
		xij := mat.NewDense(k, k)         // (Wi)jᵀ·(Wi)j
		ahtij := mat.NewDense(wHi-wLo, k) // this rank's rows of A·Hᵀ
		fw := mat.NewDense(k, wHi-wLo)    // (A·Hᵀ)ᵀ rows, W-solve RHS
		wijt := mat.NewDense(k, wHi-wLo)  // (Wi)jᵀ: warm start and W-solve dst
		wtaT := mat.NewDense(hHi-hLo, k)  // this rank's columns of Wᵀ·A, transposed
		wta := mat.NewDense(k, hHi-hLo)   // Wᵀ·A columns, H-solve RHS
		wij.TTo(wijt)

		// The W half gathers Hᵀ panels down the processor column and
		// scatters A·Hᵀ rows across the processor row (lines 3-8); the
		// H half mirrors it (lines 9-14). Everything else about the
		// schedule is shared — see halfStep.
		rk := &hpcRank{c: c, clk: clk, tr: tr, ws: ws, k: k, chunk: chunk, overlap: !opts.NoCommOverlap}
		wSide := &factorSide{
			gatherComm:   colComm,
			reduceComm:   rowComm,
			gatherCounts: hRowCounts,
			reduceCounts: wRowCounts,
			panelRows:    nj,
			gramRows:     hHi - hLo,
			localGram:    uij,
			outRows:      wHi - wLo,
			out:          ahtij,
			gram:         func() { mat.ParGramTToWS(uij, hij, pool, ws) }, // line 3: Uij = (Hj)i·(Hj)iᵀ
			sendChunk: func(c0, c1 int) []float64 {
				return hij.Submatrix(c0, c1, 0, hHi-hLo).T().Data
			},
			multiply: func(panel *mat.Dense, kc int) *mat.Dense {
				ps := clk.Start(perf.TaskMM)
				vij := ws.Get(mi, kc)
				mulBtInto(vij, aij, panel, ws, pool) // Vij columns, mi×kc
				clk.Stop(ps)
				tr.AddFlops(perf.TaskMM, 2*int64(aij.NNZ())*int64(kc))
				return vij
			},
		}
		hSide := &factorSide{
			gatherComm:   rowComm,
			reduceComm:   colComm,
			gatherCounts: wRowCounts,
			reduceCounts: hRowCounts,
			panelRows:    mi,
			gramRows:     wHi - wLo,
			localGram:    xij,
			outRows:      hHi - hLo,
			out:          wtaT,
			gram:         func() { mat.ParGramTo(xij, wij, pool) }, // line 9: Xij = (Wi)jᵀ·(Wi)j
			sendChunk:    func(c0, c1 int) []float64 { return wij.SubmatrixCols(c0, c1).Data },
			multiply: func(panel *mat.Dense, kc int) *mat.Dense {
				ps := clk.Start(perf.TaskMM)
				yij := ws.Get(kc, nj)
				mulAtBInto(yij, aij, panel, ws, pool) // Yij rows, kc×nj
				clk.Stop(ps)
				tr.AddFlops(perf.TaskMM, 2*int64(aij.NNZ())*int64(kc))
				yijT := ws.Get(nj, kc)
				yij.TTo(yijT) // reduce layout; transpose outside the MM clock
				ws.Put(yij)
				return yijT
			},
		}

		if rank == 0 {
			c.Tracer().Begin(trace.CatPhase, fmt.Sprintf("grid %dx%d", g.PR, g.PC)).End()
		}

		var relErr = make([]float64, 0, opts.MaxIter)
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
			// --- Compute W given H (lines 3-8) ---
			hht := rk.halfStep(wSide) // lines 3-7: HHᵀ and this rank's A·Hᵀ rows
			ahtij.TTo(fw)
			if serr := env.updateFactor("W", hht, fw, wijt, opts.L2W, opts.L1W); serr != nil { // line 8
				panic(fmt.Sprintf("core: HPC W update failed at iteration %d: %v", it, serr))
			}
			wijt.TTo(wij)

			// --- Compute H given W (lines 9-14) ---
			wtw := rk.halfStep(hSide) // lines 9-13: WᵀW and this rank's WᵀA columns
			wtaT.TTo(wta)

			// Stationarity measure for TolGrad: gradient at the old
			// Hij under the refreshed W (see RunSequential).
			pgLocal, pgRefLocal := 0.0, 0.0
			if opts.TolGrad > 0 {
				pgLocal = projGradSq(wtw, wta, hij, ws, pool)
				pgRefLocal = wta.SquaredFrobeniusNorm()
			}

			if serr := env.updateFactor("H", wtw, wta, hij, opts.L2H, opts.L1H); serr != nil { // line 14
				panic(fmt.Sprintf("core: HPC H update failed at iteration %d: %v", it, serr))
			}

			// --- Objective (optional): the "global aggregation for
			// residual" of §5, one scalar all-reduce. ---
			if opts.ComputeError {
				errSpan := c.Tracer().Begin(trace.CatPhase, "Err")
				hijGram := ws.Get(k, k)
				ps := clk.Start(perf.TaskGram)
				mat.ParGramTToWS(hijGram, hij, pool, ws)
				clk.Stop(ps)
				tr.AddFlops(perf.TaskGram, gramFlops(hHi-hLo, k))
				payload := []float64{mat.Dot(wta, hij), mat.Dot(wtw, hijGram)}
				ws.Put(hijGram)
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
		trackers[rank] = tr.Diff(setupTr)
		traffic[rank] = c.Counters().Diff(setupTraffic)

		// --- Gather factors on world rank 0 (outside the measured loop) ---
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
	res.Grid = g
	res.GridPredictedSeconds = pred.Seconds(opts.Model.Alpha, opts.Model.Beta, opts.Model.Gamma)
	res.Breakdown = perf.Aggregate(opts.Model, trackers, traffic).Scale(res.Iterations)
	res.PerRank = perf.PerRank(opts.Model, trackers, traffic, res.Iterations)
	rm.ObserveIterations(res.Iterations)
	if tsess != nil {
		res.Trace = tsess.Merge()
	}
	return res, nil
}
