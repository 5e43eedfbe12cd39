package main

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"time"

	"hpcnmf"
	"hpcnmf/internal/mat"
	"hpcnmf/internal/mpi"
	"hpcnmf/internal/nnls"
	"hpcnmf/internal/par"
	"hpcnmf/internal/rng"
)

// products are the two data-matrix products of one ANLS iteration as
// calls into the layer that owns them: mat for a dense input, sparse
// for a CSR one. The re-enactment times them under that layer's name.
type products struct {
	layer   string                                  // "mat" or "sparse"
	htName  string                                  // metric of the A·Hᵀ kernel's rate
	atbName string                                  // metric of the Wᵀ·A kernel's rate
	nnz     int                                     // stored entries: each product is 2·nnz·k flops
	bytesA  int64                                   // bytes one pass over A reads, computed from array sizes
	mulHt   func(dst, h *mat.Dense, pool *par.Pool) // dst(m×k) = A·Hᵀ
	mulAtB  func(dst, w *mat.Dense, pool *par.Pool) // dst(k×n) = Wᵀ·A
	prepHt  func(h *mat.Dense)                      // untimed operand preparation (the sparse kernel wants Hᵀ)
}

// callTimes accumulates the re-enactment's per-call times by kernel.
type callTimes map[string][]float64

func (ct callTimes) total(names ...string) float64 {
	s := 0.0
	for _, n := range names {
		for _, v := range ct[n] {
			s += v
		}
	}
	return s
}

// reenact runs Algorithm 1 from outside: the same exported layer
// functions, in the same order and on the same operands as the
// sequential driver's step, each call timed and spanned on its own.
// It returns the per-call times, the error history and the NLS work
// counters. Its factors are those of hpcnmf.Run from the same initial
// factors, which layers() checks.
func (fc *fitCase) reenact(e *env, w0, h0 *mat.Dense, rep int, ct callTimes) (relErr []float64, st nnls.Stats) {
	var pool *par.Pool // one thread, like the reference fit
	m, n := fc.a.Dims()
	k := fc.opts.K
	parent := e.rec.begin("reenact", e.cur, rep)
	defer parent.end()
	timed := func(name string, fn func()) {
		sp := e.rec.begin("replay/"+name, parent, rep)
		t := time.Now()
		fn()
		ct[name] = append(ct[name], time.Since(t).Seconds())
		sp.end()
	}
	w, h := w0.Clone(), h0.Clone()
	wt, fw := mat.NewDense(k, m), mat.NewDense(k, m)
	aht, wta := mat.NewDense(m, k), mat.NewDense(k, n)
	hGram, wtw := mat.NewDense(k, k), mat.NewDense(k, k)
	w.TTo(wt)
	solver := fc.opts.Solver.New(1)
	ctx := &nnls.Context{WS: mat.NewWorkspace(), Pool: pool}
	normA2 := fc.a.SquaredFrobeniusNorm()
	timed("mat.gramt", func() { mat.ParGramTTo(hGram, h, pool) })
	for it := 0; it < fc.opts.MaxIter; it++ {
		if fc.prod.prepHt != nil {
			timed("core.other", func() { fc.prod.prepHt(h) })
		}
		timed(fc.prod.htName, func() { fc.prod.mulHt(aht, h, pool) })
		timed("core.other", func() { aht.TTo(fw) })
		timed("nnls.solve_w", func() {
			s, err := nnls.SolveWith(solver, ctx, hGram, fw, wt, wt)
			st.Add(s)
			e.check(err == nil, "replayed W solve: %v", err)
		})
		timed("core.other", func() { wt.TTo(w) })
		timed("mat.gram", func() { mat.ParGramTo(wtw, w, pool) })
		timed(fc.prod.atbName, func() { fc.prod.mulAtB(wta, w, pool) })
		timed("nnls.solve_h", func() {
			s, err := nnls.SolveWith(solver, ctx, wtw, wta, h, h)
			st.Add(s)
			e.check(err == nil, "replayed H solve: %v", err)
		})
		timed("mat.gramt", func() { mat.ParGramTTo(hGram, h, pool) })
		timed("core.other", func() {
			v := max(normA2-2*mat.Dot(wta, h)+mat.Dot(wtw, hGram), 0)
			relErr = append(relErr, math.Sqrt(v)/math.Sqrt(normA2))
		})
	}
	return relErr, st
}

// layers is the traced run of a fit workload. Every number it emits is
// either replayed (the benchmark called the layer's exported function
// itself) or reported (read from a result the program already
// returns); README.md says which is which.
func (fc *fitCase) layers(e *env, budget time.Duration) error {
	e.set("datasets.gen_s", fc.genS)

	// --- Traced fits of the three arms (spans around the facade calls).
	var iterMs, initMs, traced, bare []float64
	var head, seq *hpcnmf.Result
	for r := 0; r < 3; r++ {
		o := fc.opts
		var elapsed []float64
		o.Progress = func(p hpcnmf.Progress) { elapsed = append(elapsed, p.ElapsedSeconds) }
		res, dt := fc.timedFit(e, fc.arms[0], o, r)
		if res == nil {
			return fmt.Errorf("traced headline fit failed")
		}
		head = res
		traced = append(traced, dt)
		iters, init := iterationTimes(elapsed, dt)
		iterMs, initMs = append(iterMs, iters...), append(initMs, init)
		// The same fit with no span and no callback: the difference is
		// what the benchmark's own tracing costs.
		if res, dt := fc.timedFitBare(e, fc.arms[0], fc.opts); res != nil {
			bare = append(bare, dt)
		}
	}
	var seqTimes []float64
	var ms0, ms1 runtime.MemStats
	for r := 0; r < 2; r++ {
		runtime.ReadMemStats(&ms0)
		res, dt := fc.timedFit(e, fc.arms[1], fc.opts, r)
		runtime.ReadMemStats(&ms1)
		if res == nil {
			return fmt.Errorf("traced sequential fit failed")
		}
		seq = res
		seqTimes = append(seqTimes, dt)
	}
	e.set("core.alloc_mb_per_fit", float64(ms1.TotalAlloc-ms0.TotalAlloc)/(1<<20))
	fc.timedFit(e, fc.arms[2], fc.opts, 0)
	if len(bare) == 0 {
		return fmt.Errorf("every untraced headline fit failed")
	}
	e.sample("core.iter_ms_p50", iterMs)
	e.set("core.iter_samples", float64(len(iterMs)))
	e.sample("core.init_ms", initMs)
	e.set("core.iters", float64(head.Iterations))
	e.set("core.relerr_final", head.RelErr[len(head.RelErr)-1])
	e.set("bench.span_overhead_frac", (slices.Min(traced)-slices.Min(bare))/slices.Min(bare))
	if fc.twoRank {
		e.set("core.scaling_eff", slices.Min(seqTimes)/(2*slices.Min(traced)))
	}

	fc.shareLayers(e, seq)
	if err := fc.reenactLayers(e, budget); err != nil {
		return err
	}
	perCall := replayBudget(budget)
	fc.parLayers(e, head, seq, perCall)

	// --- core: a batched projection through the facade Projector.
	if err := replayProjector(e, seq.W, func(j int) []float64 { return fc.cols[j%len(fc.cols)].Data }, perCall); err != nil {
		return err
	}
	e.set("project_p95_ms", 1e3*percentile(fc.project(e, seq.W, 8*perCall, 0), 0.95))

	// --- trace/metrics: the headline fit with the program's own event
	// tracer and a metrics registry on, against the bare fits above.
	var on []float64
	for r := 0; r < 3; r++ {
		o := fc.opts
		o.TraceEvents = true
		o.Metrics = hpcnmf.NewMetricsRegistry()
		if res, dt := fc.timedFitBare(e, fc.arms[0], o); res != nil {
			on = append(on, dt)
		}
	}
	if len(on) == 0 {
		return fmt.Errorf("every headline fit with the program's tracing on failed")
	}
	e.set("trace.overhead_frac", (slices.Min(on)-slices.Min(bare))/slices.Min(bare))

	if fc.twoRank {
		if err := fc.mpiLayers(e, head, median(iterMs)/1e3, perCall); err != nil {
			return err
		}
	}
	return nil
}

// shareLayers emits each layer's share of an iteration and the dense
// kernels' flops and computed bytes, as the program reports them
// (Result.Breakdown of the one-rank arm, where nothing overlaps).
func (fc *fitCase) shareLayers(e *env, seq *hpcnmf.Result) {
	m, n := fc.a.Dims()
	k := fc.opts.K
	bd := seq.Breakdown.ByTask()
	total := seq.Breakdown.MeasuredTotal()
	matShare := bd["Gram"].MeasuredSeconds / total
	if fc.prod.layer == "mat" {
		matShare += bd["MM"].MeasuredSeconds / total
	} else {
		e.set("sparse.iter_share", bd["MM"].MeasuredSeconds/total)
		e.set("sparse.nnz", float64(fc.prod.nnz))
	}
	e.set("mat.iter_share", matShare)
	e.set("nnls.iter_share", bd["NLS"].MeasuredSeconds/total)
	flops := float64(bd["Gram"].Flops)
	if fc.prod.layer == "mat" {
		flops += float64(bd["MM"].Flops)
	}
	// Computed, not measured: the factor-sized arrays each dense kernel
	// of one iteration reads and writes (three Grams read a factor; for
	// a dense input the two products read A, read a factor and write a
	// factor-sized result). Cache misses are not in it.
	bytes := 8 * float64(m*k+2*n*k)
	if fc.prod.layer == "mat" {
		bytes += 2*float64(fc.prod.bytesA) + 8*2*float64(m*k+n*k)
	}
	e.set("mat.flops_per_iter", flops)
	e.set("mat.bytes_per_iter_computed", bytes)
	e.set("mat.ops_per_byte", flops/bytes)
}

// reenactLayers runs a reference fit from explicit initial factors and
// then the same iterations through the layers' exported functions, as
// often as a quarter of the budget allows, and emits the re-enacted
// kernels' rates and core.replay_cover.
func (fc *fitCase) reenactLayers(e *env, budget time.Duration) error {
	m, n := fc.a.Dims()
	k := fc.opts.K
	w0, h0 := mat.NewDense(m, k), mat.NewDense(k, n)
	w0.RandomUniform(rng.New(fitSeed))
	h0.RandomUniform(rng.New(fitSeed + 1))
	ref := withThreads(fc.opts, 1)
	ref.InitW, ref.InitH = w0, h0
	var refIter float64
	ref.Progress = func(p hpcnmf.Progress) { refIter = p.ElapsedSeconds }
	var refTimes []float64
	ct := callTimes{}
	var st nnls.Stats
	passes := 0
	for start := time.Now(); passes < 2 || time.Since(start) < budget/4; passes++ {
		sp := e.rec.begin("fit/reference", e.cur, passes)
		res, err := hpcnmf.Run(fc.a, ref)
		sp.end()
		e.attempt(1)
		if err != nil {
			e.fail("reference fit: %v", err)
			return err
		}
		refTimes = append(refTimes, refIter)
		var got []float64
		got, st = fc.reenact(e, w0, h0, passes, ct)
		want := res.RelErr[len(res.RelErr)-1]
		e.check(math.Abs(got[len(got)-1]-want) <= 1e-12,
			"re-enactment ends at error %v, the fit at %v", got[len(got)-1], want)
	}
	layerCalls := []string{fc.prod.htName, fc.prod.atbName, "mat.gram", "mat.gramt", "nnls.solve_w", "nnls.solve_h"}
	e.set("core.replay_cover", ct.total(layerCalls...)/float64(passes)/median(refTimes))
	gflops := func(name string, flopsPerCall float64) float64 { return flopsPerCall / median(ct[name]) / 1e9 }
	e.set(fc.prod.htName+"_gflops", gflops(fc.prod.htName, 2*float64(fc.prod.nnz)*float64(k)))
	e.set(fc.prod.atbName+"_gflops", gflops(fc.prod.atbName, 2*float64(fc.prod.nnz)*float64(k)))
	gramFlops := float64(m+n) * float64(k) * float64(k+1)
	e.set("mat.gram_gflops", gramFlops/(median(ct["mat.gram"])+median(ct["mat.gramt"]))/1e9)
	e.sample("nnls.solve_w_ms", scale(ct["nnls.solve_w"], 1e3))
	e.sample("nnls.solve_h_ms", scale(ct["nnls.solve_h"], 1e3))
	e.set("nnls.cols_per_s", float64(m+n)/(median(ct["nnls.solve_w"])+median(ct["nnls.solve_h"])))
	e.set("nnls.rounds_per_solve", float64(st.Iterations)/float64(2*fc.opts.MaxIter))
	return nil
}

// parLayers replays the workload's kernels at pool width 2 over width
// 1, and the kernel only the two-rank arm calls.
func (fc *fitCase) parLayers(e *env, head, seq *hpcnmf.Result, perCall time.Duration) {
	m, n := fc.a.Dims()
	k := fc.opts.K
	pool := par.NewPool(2)
	defer pool.Close()
	wta, g := mat.NewDense(k, n), mat.NewDense(k, k)
	speedup := func(name string, fn func(p *par.Pool)) float64 {
		one := e.replay("par."+name+"@1", perCall, func() { fn(nil) })
		two := e.replay("par."+name+"@2", perCall, func() { fn(pool) })
		return one / two
	}
	atb := speedup("atb", func(p *par.Pool) { fc.prod.mulAtB(wta, seq.W, p) })
	if fc.prod.layer == "mat" {
		e.set("par.mulatb_speedup_2t", atb)
		aht := mat.NewDense(m, k)
		e.set("par.mulabt_speedup_2t", speedup("abt", func(p *par.Pool) { fc.prod.mulHt(aht, seq.H, p) }))
		// The two-rank arm multiplies its block by the gathered panel
		// through ParMulTo, a kernel the one-rank driver never calls.
		if fc.twoRank {
			e.set("mat.mul_gflops", fc.replayMul(e, head.Grid, seq.H.T(), perCall))
		}
	} else {
		e.set("par.spmm_speedup_2t", atb)
	}
	e.set("par.gram_speedup_2t", speedup("gram", func(p *par.Pool) { mat.ParGramTo(g, seq.W, p) }))
}

// replayBudget is how long one replayed call is repeated for.
func replayBudget(budget time.Duration) time.Duration {
	return max(budget/40, 50*time.Millisecond)
}

// iterationTimes turns the ElapsedSeconds of a fit's Progress records
// and the fit's wall time into per-iteration milliseconds and the
// milliseconds outside the iterations (init, partition, final gather).
func iterationTimes(elapsed []float64, fitSeconds float64) (iterMs []float64, initMs float64) {
	prev := 0.0
	for _, el := range elapsed {
		iterMs = append(iterMs, 1e3*(el-prev))
		prev = el
	}
	return iterMs, 1e3 * (fitSeconds - prev)
}

// projectorBatch is the replayed projection's width: the serving
// layer's default MaxBatch.
const projectorBatch = 32

// replayProjector emits core.project_cols_per_s: one ProjectInto of
// projectorBatch columns (column(j) is the j-th, m long) onto basis w
// through the facade Projector.
func replayProjector(e *env, w *mat.Dense, column func(j int) []float64, perCall time.Duration) error {
	cols := mat.NewDense(w.Rows, projectorBatch)
	for j := 0; j < projectorBatch; j++ {
		for i, v := range column(j) {
			cols.Data[i*projectorBatch+j] = v
		}
	}
	proj, err := hpcnmf.NewProjector(w, hpcnmf.SolverBPP, 0)
	if err != nil {
		return err
	}
	dst := mat.NewDense(w.Cols, projectorBatch)
	sec := e.replay("core.project32", perCall, func() {
		_, err := proj.ProjectInto(dst, cols, nil)
		e.check(err == nil && dst.Min() >= 0, "batched projection: %v", err)
	})
	e.set("core.project_cols_per_s", projectorBatch/sec)
	return nil
}

// timedFitBare is timedFit without a span.
func (fc *fitCase) timedFitBare(e *env, arm fitArm, o hpcnmf.Options) (*hpcnmf.Result, float64) {
	rec := e.rec
	e.rec = nil
	defer func() { e.rec = rec }()
	return fc.timedFit(e, arm, o, 0)
}

// replay calls fn for at least d and at least three times under one
// span and returns the median seconds per call.
func (e *env) replay(name string, d time.Duration, fn func()) float64 {
	sp := e.rec.begin("replay/"+name, e.cur, 0)
	defer sp.end()
	var times []float64
	for start := time.Now(); len(times) < 3 || time.Since(start) < d; {
		t := time.Now()
		fn()
		times = append(times, time.Since(t).Seconds())
	}
	return median(times)
}

func scale(xs []float64, f float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x * f
	}
	return out
}

// replayMul times mat.ParMulTo on one rank's block of the two-rank
// grid: block (m/pr × n/pc) times the gathered panel (n/pc × k).
func (fc *fitCase) replayMul(e *env, g hpcnmf.Grid, ht *mat.Dense, perCall time.Duration) float64 {
	d := fc.dense
	block := d.Submatrix(0, d.Rows/g.PR, 0, d.Cols/g.PC)
	panel := ht.SubmatrixRows(0, block.Cols)
	dst := mat.NewDense(block.Rows, panel.Cols)
	sec := e.replay("mat.mul", perCall, func() { mat.ParMulTo(dst, block, panel, nil) })
	return 2 * float64(block.Rows) * float64(block.Cols) * float64(panel.Cols) / sec / 1e9
}

// mpiLayers reports the two-rank arm's traffic (exact counts from
// Result.Breakdown), replays its three collectives in a two-rank world
// at the arm's word counts, and takes the p=16 counts that carry the
// paper's bandwidth claim from two short untimed fits.
func (fc *fitCase) mpiLayers(e *env, head *hpcnmf.Result, iterSec float64, perCall time.Duration) error {
	m, n := fc.a.Dims()
	k := fc.opts.K
	bd := head.Breakdown.ByTask()
	var words, msgs int64
	var wait float64
	for _, task := range []string{"AllG", "RedSc", "AllR"} {
		words += bd[task].Words
		msgs += bd[task].Msgs
		wait += bd[task].MeasuredSeconds
	}
	e.set("mpi.words_per_iter", float64(words))
	e.set("mpi.msgs_per_iter", float64(msgs))
	e.set("mpi.wait_share", wait/head.Breakdown.MeasuredTotal())

	// On a 2×1 grid the factor that travels is H (n·k words), on a 1×2
	// grid it is W (m·k words).
	dim := n
	if head.Grid.PC == 2 {
		dim = m
	}
	half := []int{dim / 2 * k, (dim - dim/2) * k}
	var tAG, tRS, tAR []float64
	sp := e.rec.begin("replay/mpi.collectives", e.cur, 0)
	world := mpi.NewWorld(2)
	world.Run(func(c *mpi.Comm) {
		part := make([]float64, half[c.Rank()])
		full := make([]float64, dim*k)
		gram := make([]float64, k*k)
		for start := time.Now(); ; {
			c.Barrier()
			t := time.Now()
			c.AllGatherV(part, half)
			d1 := time.Since(t)
			t = time.Now()
			c.ReduceScatter(full, half)
			d2 := time.Since(t)
			t = time.Now()
			c.AllReduce(gram)
			d3 := time.Since(t)
			// Rank 0 decides when to stop, so both ranks leave together.
			stop := []float64{0}
			if c.Rank() == 0 {
				tAG = append(tAG, d1.Seconds()*1e6)
				tRS = append(tRS, d2.Seconds()*1e6)
				tAR = append(tAR, d3.Seconds()*1e6)
				if len(tAR) >= 5 && time.Since(start) >= perCall {
					stop[0] = 1
				}
			}
			if c.Bcast(0, stop)[0] == 1 {
				break
			}
		}
	})
	sp.end()
	e.sample("mpi.allgather_us", tAG)
	e.sample("mpi.reducescatter_us", tRS)
	e.sample("mpi.allreduce_us", tAR)

	// p=16: counts only. Sixteen ranks oversubscribe two CPUs, so the
	// wall clock of these fits says nothing and is not read.
	o := withThreads(fc.opts, 1)
	o.MaxIter = 2
	sp = e.rec.begin("fit/p16-counts", e.cur, 0)
	hpc, err := hpcnmf.RunParallel(fc.a, 16, o)
	if err != nil {
		return fmt.Errorf("p=16 HPC fit: %w", err)
	}
	naive, err := hpcnmf.RunNaive(fc.a, 16, o)
	sp.end()
	if err != nil {
		return fmt.Errorf("p=16 naive fit: %w", err)
	}
	count := func(r *hpcnmf.Result) (words, msgs int64) {
		for _, task := range []string{"AllG", "RedSc", "AllR"} {
			c := r.Breakdown.ByTask()[task]
			words += c.Words
			msgs += c.Msgs
		}
		return
	}
	w16, m16 := count(hpc)
	wn16, _ := count(naive)
	e.set("mpi.words_per_iter_p16", float64(w16))
	e.set("mpi.msgs_per_iter_p16", float64(m16))
	e.set("mpi.naive_words_per_iter_p16", float64(wn16))

	// costmodel: what choosing the grid costs, and how far the Edison
	// forecast is from this host (a ratio; its base is the measured
	// iteration).
	var gridErr error
	sec := e.replay("costmodel.autogrid", perCall, func() { _, gridErr = hpcnmf.AutoGrid(fc.a, k, 2) })
	e.check(gridErr == nil, "AutoGrid: %v", gridErr)
	e.set("costmodel.autogrid_us", sec*1e6)
	e.set("costmodel.drift", head.GridPredictedSeconds/iterSec)
	return nil
}
