package experiments

import (
	"encoding/json"
	"fmt"
	"io"
	"time"

	"hpcnmf/internal/core"
	"hpcnmf/internal/grid"
	"hpcnmf/internal/mat"
	"hpcnmf/internal/nnls"
	"hpcnmf/internal/par"
	"hpcnmf/internal/rng"
	"hpcnmf/internal/sparse"
)

// This file is the kernel-layer counterpart of the figure harness: it
// times the blocked/threaded compute kernels of internal/mat and
// internal/sparse against the retained naive reference loops on the
// paper's local problem shapes (m≈10k rows per rank, k=50), and emits
// the versioned KernelReport consumed by `nmfbench -kernels -json`
// (the BENCH_kernels.json artifact tracked from this PR on).

// KernelRow is one timed (kernel, implementation, threads) point.
type KernelRow struct {
	// Kernel names the operation (MulAtB, Gram, MulABt, MulABtPanel,
	// MulAdd, GramT, SpMulBt, SpMulWtA, their Skew/Small sparse
	// variants, or the HPC2Dwebbase driver rows).
	Kernel string `json:"kernel"`
	// M, N, K give the operand shape; the output is k×n (MulAtB), k×k
	// (Gram/GramT), or m-rowed otherwise.
	M int `json:"m"`
	N int `json:"n"`
	K int `json:"k"`
	// Impl is "naive" (the seed's reference loops) or "blocked" (the
	// production kernels: the tile kernel for MulABt/MulABtPanel/GramT,
	// axpy42 for the rest).
	Impl string `json:"impl"`
	// Threads is the kernel pool width (1 = inline, no pool).
	Threads int `json:"threads"`
	// Seconds is the best-of-reps wall time of one kernel call.
	Seconds float64 `json:"seconds"`
	// GFlops is the resulting throughput.
	GFlops float64 `json:"gflops"`
	// SpeedupVsNaive is naive-seconds / seconds at the same shape (1.0
	// for the naive rows themselves).
	SpeedupVsNaive float64 `json:"speedup_vs_naive"`
}

// KernelReport is the versioned machine-readable kernel benchmark
// output, diffable across commits like BenchReport.
type KernelReport struct {
	Version int         `json:"version"`
	Seed    uint64      `json:"seed"`
	Reps    int         `json:"reps"`
	Rows    []KernelRow `json:"rows"`
}

// KernelReportVersion identifies the KernelReport schema.
const KernelReportVersion = 1

// WriteJSON writes the kernel report as indented JSON.
func (r *KernelReport) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// KernelConfig sizes the kernel benchmark.
type KernelConfig struct {
	// M is the tall dimension (paper-scale default 10000).
	M int
	// N is the wide dimension of the rectangular products (default 400,
	// sized so a full sweep stays in seconds).
	N int
	// K is the rank (paper default 50).
	K int
	// Threads lists the pool widths to time (default 1 and 4).
	Threads []int
	// Reps is how many calls each timing takes the minimum over
	// (default 3; minimum-of-reps resists scheduler noise).
	Reps int
	// Seed drives operand generation.
	Seed uint64
	// HPCNodes sizes the webbase-shaped synthetic (a square power-law
	// graph of this many nodes) behind the HPC2Dwebbase driver rows,
	// which time a full 2D HPC-NMF iteration dense-vs-sparse at the
	// same shape (default 3000). ≤ 0 after explicit zeroing disables
	// the driver rows entirely (set to -1).
	HPCNodes int
}

func (c KernelConfig) withDefaults() KernelConfig {
	if c.M <= 0 {
		c.M = 10000
	}
	if c.N <= 0 {
		c.N = 400
	}
	if c.K <= 0 {
		c.K = 50
	}
	if len(c.Threads) == 0 {
		c.Threads = []int{1, 4}
	}
	if c.Reps <= 0 {
		c.Reps = 3
	}
	if c.Seed == 0 {
		c.Seed = 42
	}
	if c.HPCNodes == 0 {
		c.HPCNodes = 3000
	}
	return c
}

// timeBest returns the minimum wall time of reps calls to fn.
func timeBest(reps int, fn func()) float64 {
	best := 0.0
	for r := 0; r < reps; r++ {
		start := time.Now()
		fn()
		el := time.Since(start).Seconds()
		if r == 0 || el < best {
			best = el
		}
	}
	return best
}

// kernelCase is one kernel: a naive reference call and a blocked call
// parameterized by pool.
type kernelCase struct {
	name    string
	m, n, k int
	flops   float64
	naive   func()
	blocked func(p *par.Pool)
}

// CollectKernels times every kernel at the configured shapes and
// thread counts and returns the report.
func CollectKernels(cfg KernelConfig) *KernelReport {
	cfg = cfg.withDefaults()
	s := rng.New(cfg.Seed)
	m, n, k := cfg.M, cfg.N, cfg.K

	// Operands, shaped as the drivers use them: A (m×n dense or sparse),
	// W (m×k), H (k×n, and its transpose for the A·Hᵀ layouts).
	w := mat.NewDense(m, k)
	w.RandomUniform(s)
	h := mat.NewDense(k, n)
	h.RandomUniform(s)
	a := mat.NewDense(m, n)
	a.RandomUniform(s)
	ht := mat.NewDense(n, k)
	h.TTo(ht)
	sp := sparse.RandomER(m, n, 0.01, s)

	cWta := mat.NewDense(k, n)   // Wᵀ·A
	cGram := mat.NewDense(k, k)  // WᵀW / HHᵀ
	cAht := mat.NewDense(m, k)   // A·Hᵀ
	cMul := mat.NewDense(m, n)   // W·H
	cSpWta := mat.NewDense(k, n) // sparse Wᵀ·A

	// Skewed (webbase-shaped) and small (below the serial-fallback
	// threshold) sparse operands for the locality-kernel rows.
	spSkew := sparse.RandomPowerLaw(m, 8, s)
	htSkew := mat.NewDense(spSkew.Cols, k)
	htSkew.RandomUniform(s)
	wSkew := mat.NewDense(spSkew.Rows, k)
	wSkew.RandomUniform(s)
	cSkewBt := mat.NewDense(spSkew.Rows, k)
	cSkewWta := mat.NewDense(k, spSkew.Cols)

	spSmall := sparse.RandomER(max(m/10, 1), n, 0.01, s)
	htSmall := mat.NewDense(spSmall.Cols, k)
	htSmall.RandomUniform(s)
	wSmall := mat.NewDense(spSmall.Rows, k)
	wSmall.RandomUniform(s)
	cSmallBt := mat.NewDense(spSmall.Rows, k)
	cSmallWta := mat.NewDense(k, spSmall.Cols)

	// The drivers call the sparse Wᵀ·A kernel and the tile-kernel
	// products through a workspace arena, so the bench does too:
	// without it every call allocates (and page-faults) a fresh n×k
	// accumulator or pack buffer, and the measured time swings with
	// whatever heap state earlier cases left behind.
	ws := mat.NewWorkspace()

	// The out-of-core driver's shape (benchmark workload ooc_lowk at the
	// default sizes: one 327-row tile of a 3200-column matrix, k=16): a
	// thin row panel against two packed panels, where a kernel tuned
	// only for big blocks loses.
	const panelK = 16
	aPanel := mat.NewDense(max(m*327/10000, 1), 8*n)
	aPanel.RandomUniform(s)
	hPanel := mat.NewDense(panelK, 8*n)
	hPanel.RandomUniform(s)
	cPanel := mat.NewDense(aPanel.Rows, panelK)

	cases := []kernelCase{
		{
			name: "MulAtB", m: m, n: n, k: k,
			flops:   2 * float64(m) * float64(k) * float64(n),
			naive:   func() { cWta.Zero(); mat.RefMulAtBAddTo(cWta, w, a) },
			blocked: func(p *par.Pool) { mat.ParMulAtBTo(cWta, w, a, p) },
		},
		{
			name: "Gram", m: m, n: 0, k: k,
			flops:   float64(m) * float64(k) * float64(k+1),
			naive:   func() { cGram.Zero(); mat.RefGramAddTo(cGram, w) },
			blocked: func(p *par.Pool) { mat.ParGramTo(cGram, w, p) },
		},
		{
			name: "MulABt", m: m, n: n, k: k,
			flops:   2 * float64(m) * float64(n) * float64(k),
			naive:   func() { mat.RefMulABtTo(cAht, a, h) },
			blocked: func(p *par.Pool) { mat.ParMulABtToWS(cAht, a, h, p, ws) },
		},
		{
			name: "MulABtPanel", m: aPanel.Rows, n: aPanel.Cols, k: panelK,
			flops:   2 * float64(aPanel.Rows) * float64(aPanel.Cols) * panelK,
			naive:   func() { mat.RefMulABtTo(cPanel, aPanel, hPanel) },
			blocked: func(p *par.Pool) { mat.ParMulABtToWS(cPanel, aPanel, hPanel, p, ws) },
		},
		{
			name: "MulAdd", m: m, n: n, k: k,
			flops:   2 * float64(m) * float64(k) * float64(n),
			naive:   func() { cMul.Zero(); mat.RefMulAddTo(cMul, w, h) },
			blocked: func(p *par.Pool) { mat.ParMulTo(cMul, w, h, p) },
		},
		{
			name: "GramT", m: 0, n: n, k: k,
			flops:   float64(n) * float64(k) * float64(k+1),
			naive:   func() { mat.RefGramT(h) },
			blocked: func(p *par.Pool) { mat.ParGramTToWS(cGram, h, p, ws) },
		},
		{
			// Sparse rows: "naive" is the retained scalar reference loop
			// (the seed's kernel), "blocked" the locality-partitioned
			// SIMD kernel — nnz-balanced ranges, k-strip blocking, and
			// the Axpy4 primitives (see internal/sparse/spmm.go).
			name: "SpMulBt", m: m, n: n, k: k,
			flops:   2 * float64(sp.NNZ()) * float64(k),
			naive:   func() { sparse.RefMulBtTo(cAht, sp, ht) },
			blocked: func(p *par.Pool) { sp.MulBtTo(cAht, ht, p) },
		},
		{
			name: "SpMulWtA", m: m, n: n, k: k,
			flops:   2 * float64(sp.NNZ()) * float64(k),
			naive:   func() { sparse.RefMulWtATo(cSpWta, sp, w) },
			blocked: func(p *par.Pool) { sp.MulWtAToWS(cSpWta, w, p, ws) },
		},
		{
			// Webbase-shaped skew: a square power-law graph, where
			// nnz-balanced ranges matter (row-count splits strand the
			// heavy rows on one worker) and the n×k panel exceeds the
			// k-strip budget.
			name: "SpMulBtSkew", m: spSkew.Rows, n: spSkew.Cols, k: k,
			flops:   2 * float64(spSkew.NNZ()) * float64(k),
			naive:   func() { sparse.RefMulBtTo(cSkewBt, spSkew, htSkew) },
			blocked: func(p *par.Pool) { spSkew.MulBtTo(cSkewBt, htSkew, p) },
		},
		{
			name: "SpMulWtASkew", m: spSkew.Rows, n: spSkew.Cols, k: k,
			flops:   2 * float64(spSkew.NNZ()) * float64(k),
			naive:   func() { sparse.RefMulWtATo(cSkewWta, spSkew, wSkew) },
			blocked: func(p *par.Pool) { spSkew.MulWtAToWS(cSkewWta, wSkew, p, ws) },
		},
		{
			// Below the serial-fallback threshold: the pooled call must
			// bypass the pool, so speedup-vs-naive stays ≥ 1 at every
			// thread count (the seed's pooled path measured 0.85× here).
			name: "SpMulBtSmall", m: spSmall.Rows, n: spSmall.Cols, k: k,
			flops:   2 * float64(spSmall.NNZ()) * float64(k),
			naive:   func() { sparse.RefMulBtTo(cSmallBt, spSmall, htSmall) },
			blocked: func(p *par.Pool) { spSmall.MulBtTo(cSmallBt, htSmall, p) },
		},
		{
			name: "SpMulWtASmall", m: spSmall.Rows, n: spSmall.Cols, k: k,
			flops:   2 * float64(spSmall.NNZ()) * float64(k),
			naive:   func() { sparse.RefMulWtATo(cSmallWta, spSmall, wSmall) },
			blocked: func(p *par.Pool) { spSmall.MulWtAToWS(cSmallWta, wSmall, p, ws) },
		},
	}

	// The BPP local NLS solve at the paper's per-rank shape (k×k Gram,
	// k×n RHS): "naive" is per-column block principal pivoting,
	// "blocked" passive-set column grouping (DESIGN ablation 3 —
	// columns sharing a passive set share one Cholesky). The RHS is
	// built from a mean-shifted A so a realistic fraction of the
	// columns hits active constraints; the solve is single-threaded by
	// contract, so the pool parameter is unused and the thread rows
	// measure the same code path.
	{
		aShift := a.Clone()
		for i := range aShift.Data {
			aShift.Data[i] -= 0.25
		}
		gBpp := mat.Gram(w)
		fBpp := mat.MulAtB(w, aShift)
		solveWith := func(s *nnls.BPP) {
			if _, _, err := s.Solve(gBpp, fBpp, nil); err != nil {
				panic(fmt.Sprintf("experiments: BPPSolve bench: %v", err))
			}
		}
		_, st, err := (&nnls.BPP{Grouping: true}).Solve(gBpp, fBpp, nil)
		if err != nil {
			panic(fmt.Sprintf("experiments: BPPSolve bench: %v", err))
		}
		cases = append(cases, kernelCase{
			name: "BPPSolve", m: 0, n: n, k: k,
			flops:   float64(st.Flops),
			naive:   func() { solveWith(&nnls.BPP{Grouping: false}) },
			blocked: func(p *par.Pool) { solveWith(&nnls.BPP{Grouping: true}) },
		})
	}

	rep := &KernelReport{Version: KernelReportVersion, Seed: cfg.Seed, Reps: cfg.Reps}
	for _, kc := range cases {
		kc.naive() // warm caches and page in operands
		naiveSec := timeBest(cfg.Reps, kc.naive)
		rep.Rows = append(rep.Rows, KernelRow{
			Kernel: kc.name, M: kc.m, N: kc.n, K: kc.k,
			Impl: "naive", Threads: 1,
			Seconds: naiveSec, GFlops: kc.flops / naiveSec / 1e9, SpeedupVsNaive: 1,
		})
		for _, threads := range cfg.Threads {
			pool := par.NewPool(threads)
			run := func() { kc.blocked(pool) }
			run()
			sec := timeBest(cfg.Reps, run)
			pool.Close()
			rep.Rows = append(rep.Rows, KernelRow{
				Kernel: kc.name, M: kc.m, N: kc.n, K: kc.k,
				Impl: "blocked", Threads: threads,
				Seconds: sec, GFlops: kc.flops / sec / 1e9, SpeedupVsNaive: naiveSec / sec,
			})
		}
	}

	// Driver-level rows: per-iteration wall time of the full 2D
	// HPC-NMF driver on a webbase-shaped synthetic (≥99% sparse,
	// power-law skew), dense vs sparse storage of the same matrix.
	// Impl "dense" is the baseline (speedup 1); the sparse row's
	// speedup-vs-naive is the storage win at this shape. GFlops
	// counts only the useful (nonzero) multiply work, so the dense
	// row's low number is the point: it spends its time multiplying
	// zeros.
	if cfg.HPCNodes > 0 {
		web := sparse.RandomPowerLaw(cfg.HPCNodes, 8, s)
		const webK, webIters = 16, 3
		g := grid.Grid{PR: 2, PC: 2}
		reps := cfg.Reps
		if reps > 3 {
			reps = 3 // each rep is a full multi-iteration dense run
		}
		runIter := func(a core.Matrix) float64 {
			best := 0.0
			for r := 0; r < reps; r++ {
				res, err := core.RunHPC(a, g, core.Options{
					K: webK, MaxIter: webIters, Seed: cfg.Seed, Solver: core.SolverHALS,
				})
				if err != nil {
					panic(fmt.Sprintf("experiments: HPC2Dwebbase run: %v", err))
				}
				// Breakdown is already the per-iteration aggregate.
				if sec := res.Breakdown.MeasuredTotal(); r == 0 || sec < best {
					best = sec
				}
			}
			return best
		}
		webFlops := 4 * float64(web.NNZ()) * float64(webK) // two SpMM per iteration
		denseSec := runIter(core.WrapDense(web.ToDense()))
		spSec := runIter(core.WrapSparse(web))
		rep.Rows = append(rep.Rows,
			KernelRow{
				Kernel: "HPC2Dwebbase", M: web.Rows, N: web.Cols, K: webK,
				Impl: "dense", Threads: 1,
				Seconds: denseSec, GFlops: webFlops / denseSec / 1e9, SpeedupVsNaive: 1,
			},
			KernelRow{
				Kernel: "HPC2Dwebbase", M: web.Rows, N: web.Cols, K: webK,
				Impl: "sparse", Threads: 1,
				Seconds: spSec, GFlops: webFlops / spSec / 1e9, SpeedupVsNaive: denseSec / spSec,
			})
	}
	return rep
}

// WriteKernelTable renders the report as the text table nmfbench
// -kernels prints.
func WriteKernelTable(rep *KernelReport, w io.Writer) {
	fmt.Fprintf(w, "Kernel micro-benchmarks (best of %d reps)\n", rep.Reps)
	fmt.Fprintf(w, "%-13s %-8s %8s %12s %10s %10s\n", "kernel", "impl", "threads", "seconds", "GFlop/s", "speedup")
	for _, r := range rep.Rows {
		fmt.Fprintf(w, "%-13s %-8s %8d %12.6f %10.2f %9.2fx\n",
			r.Kernel, r.Impl, r.Threads, r.Seconds, r.GFlops, r.SpeedupVsNaive)
	}
}
