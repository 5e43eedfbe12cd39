package core

import (
	"math"
	"testing"
	"testing/quick"

	"hpcnmf/internal/grid"
	"hpcnmf/internal/mat"
	"hpcnmf/internal/perf"
	"hpcnmf/internal/rng"
	"hpcnmf/internal/sparse"
)

// mul returns A·B in a fresh matrix, computed by the production kernel.
func mul(a, b *mat.Dense) *mat.Dense {
	c := mat.NewDense(a.Rows, b.Cols)
	mat.ParMulTo(c, a, b, nil)
	return c
}

// gram returns AᵀA in a fresh matrix, computed by the production kernel.
func gram(a *mat.Dense) *mat.Dense {
	g := mat.NewDense(a.Cols, a.Cols)
	mat.ParGramTo(g, a, nil)
	return g
}

// lowRankDense builds A = W*·H* + noise with non-negative factors, so
// a rank-k factorization can reach a small relative error.
func lowRankDense(m, n, k int, noise float64, seed uint64) *mat.Dense {
	s := rng.New(seed)
	w := mat.NewDense(m, k)
	w.RandomUniform(s)
	h := mat.NewDense(k, n)
	h.RandomUniform(s)
	a := mul(w, h)
	for i := range a.Data {
		v := a.Data[i] + noise*s.Normal()
		if v < 0 {
			v = 0
		}
		a.Data[i] = v
	}
	return a
}

func testOpts(k int) Options {
	return Options{K: k, MaxIter: 8, Seed: 7, ComputeError: true}
}

// directRelErr recomputes ‖A−WH‖_F/‖A‖_F the expensive way, to
// validate the byproduct-based objective.
func directRelErr(a *mat.Dense, w, h *mat.Dense) float64 {
	r := mul(w, h)
	for i, v := range a.Data {
		r.Data[i] -= v
	}
	return math.Sqrt(r.SquaredFrobeniusNorm()) / math.Sqrt(a.SquaredFrobeniusNorm())
}

func TestSequentialConvergesDense(t *testing.T) {
	a := lowRankDense(40, 30, 4, 0.01, 1)
	res, err := RunSequential(WrapDense(a), testOpts(4))
	if err != nil {
		t.Fatal(err)
	}
	if res.W.Rows != 40 || res.W.Cols != 4 || res.H.Rows != 4 || res.H.Cols != 30 {
		t.Fatalf("factor shapes W %dx%d H %dx%d", res.W.Rows, res.W.Cols, res.H.Rows, res.H.Cols)
	}
	if res.W.Min() < 0 || res.H.Min() < 0 {
		t.Fatal("factors not non-negative")
	}
	last := res.RelErr[len(res.RelErr)-1]
	if last > 0.1 {
		t.Fatalf("relative error %g did not reach noise floor", last)
	}
	// Monotone non-increasing objective (exact ANLS guarantees it).
	for i := 1; i < len(res.RelErr); i++ {
		if res.RelErr[i] > res.RelErr[i-1]*(1+1e-9) {
			t.Fatalf("objective increased at iteration %d: %g -> %g", i, res.RelErr[i-1], res.RelErr[i])
		}
	}
}

func TestSequentialObjectiveMatchesDirect(t *testing.T) {
	a := lowRankDense(25, 20, 3, 0.05, 2)
	res, err := RunSequential(WrapDense(a), testOpts(3))
	if err != nil {
		t.Fatal(err)
	}
	want := directRelErr(a, res.W, res.H)
	got := res.RelErr[len(res.RelErr)-1]
	if math.Abs(got-want) > 1e-8 {
		t.Fatalf("byproduct objective %g vs direct %g", got, want)
	}
}

func TestSequentialSparse(t *testing.T) {
	s := sparse.RandomER(60, 50, 0.2, rng.New(3))
	res, err := RunSequential(WrapSparse(s), testOpts(5))
	if err != nil {
		t.Fatal(err)
	}
	// Sparse random matrices aren't low-rank; just check sanity and
	// that the objective is consistent with the dense computation.
	want := directRelErr(s.ToDense(), res.W, res.H)
	got := res.RelErr[len(res.RelErr)-1]
	if math.Abs(got-want) > 1e-8 {
		t.Fatalf("sparse objective %g vs direct %g", got, want)
	}
}

func TestSequentialSolverVariants(t *testing.T) {
	a := lowRankDense(30, 24, 3, 0.01, 4)
	for _, kind := range []SolverKind{SolverBPP, SolverMU, SolverHALS} {
		opts := testOpts(3)
		opts.Solver = kind
		opts.Sweeps = 2
		res, err := RunSequential(WrapDense(a), opts)
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		last := res.RelErr[len(res.RelErr)-1]
		if math.IsNaN(last) || last > 0.5 {
			t.Fatalf("%s: relative error %g", kind, last)
		}
	}
}

func TestSequentialRejectsBadRank(t *testing.T) {
	a := lowRankDense(10, 8, 2, 0, 5)
	if _, err := RunSequential(WrapDense(a), Options{K: 0}); err == nil {
		t.Fatal("K=0 accepted")
	}
	if _, err := RunSequential(WrapDense(a), Options{K: 20}); err == nil {
		t.Fatal("K > min(m,n) accepted")
	}
	if _, err := RunSequential(WrapDense(a), Options{K: 2, Tol: 1e-3}); err == nil {
		t.Fatal("Tol without ComputeError accepted")
	}
}

func TestTolStopsEarly(t *testing.T) {
	a := lowRankDense(30, 25, 3, 0, 6)
	opts := testOpts(3)
	opts.MaxIter = 50
	opts.Tol = 1e-4
	res, err := RunSequential(WrapDense(a), opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Iterations >= 50 {
		t.Fatalf("Tol did not stop early (ran %d iterations)", res.Iterations)
	}
}

// TestParallelMatchesSequential is the central correctness property
// (paper §6.1.3): with a shared seed, Naive and HPC-NMF on any grid
// perform the same computation as the sequential ANLS up to
// floating-point reduction order, so the factors must agree tightly.
func TestParallelMatchesSequential(t *testing.T) {
	for _, tc := range []struct {
		name    string
		dense   bool
		m, n, k int
	}{
		{"dense", true, 36, 28, 4},
		{"sparse", false, 48, 36, 4},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var a Matrix
			if tc.dense {
				a = WrapDense(lowRankDense(tc.m, tc.n, tc.k, 0.05, 11))
			} else {
				a = WrapSparse(sparse.RandomER(tc.m, tc.n, 0.3, rng.New(11)))
			}
			opts := testOpts(tc.k)
			opts.MaxIter = 5
			seq, err := RunSequential(a, opts)
			if err != nil {
				t.Fatal(err)
			}
			for _, run := range []struct {
				name string
				fn   func() (*Result, error)
			}{
				{"naive-p4", func() (*Result, error) { return RunNaive(a, 4, opts) }},
				{"naive-p3", func() (*Result, error) { return RunNaive(a, 3, opts) }},
				{"hpc-1d-4x1", func() (*Result, error) { return RunHPC(a, grid.New(4, 1), opts) }},
				{"hpc-2d-2x2", func() (*Result, error) { return RunHPC(a, grid.New(2, 2), opts) }},
				{"hpc-2d-3x2", func() (*Result, error) { return RunHPC(a, grid.New(3, 2), opts) }},
				{"hpc-2d-2x3", func() (*Result, error) { return RunHPC(a, grid.New(2, 3), opts) }},
				{"hpc-col-1x4", func() (*Result, error) { return RunHPC(a, grid.New(1, 4), opts) }},
			} {
				par, err := run.fn()
				if err != nil {
					t.Fatalf("%s: %v", run.name, err)
				}
				if par.Iterations != seq.Iterations {
					t.Fatalf("%s: %d iterations vs sequential %d", run.name, par.Iterations, seq.Iterations)
				}
				if d := par.W.MaxDiff(seq.W); d > 1e-6 {
					t.Errorf("%s: W differs from sequential by %g", run.name, d)
				}
				if d := par.H.MaxDiff(seq.H); d > 1e-6 {
					t.Errorf("%s: H differs from sequential by %g", run.name, d)
				}
				for i := range seq.RelErr {
					if math.Abs(par.RelErr[i]-seq.RelErr[i]) > 1e-8 {
						t.Errorf("%s: objective trajectory diverged at iter %d: %g vs %g",
							run.name, i, par.RelErr[i], seq.RelErr[i])
						break
					}
				}
			}
		})
	}
}

func TestParallelUnevenBlocks(t *testing.T) {
	// Dimensions that do not divide the grid: the v-variant
	// collectives must handle ragged blocks (DESIGN decision 5).
	a := WrapDense(lowRankDense(37, 29, 3, 0.02, 13))
	opts := testOpts(3)
	opts.MaxIter = 3
	seq, err := RunSequential(a, opts)
	if err != nil {
		t.Fatal(err)
	}
	par, err := RunHPC(a, grid.New(3, 2), opts)
	if err != nil {
		t.Fatal(err)
	}
	if d := par.W.MaxDiff(seq.W); d > 1e-6 {
		t.Fatalf("uneven-block HPC W differs by %g", d)
	}
	nv, err := RunNaive(a, 5, opts)
	if err != nil {
		t.Fatal(err)
	}
	if d := nv.H.MaxDiff(seq.H); d > 1e-6 {
		t.Fatalf("uneven-block Naive H differs by %g", d)
	}
}

func TestHPCSingleRank(t *testing.T) {
	// A 1x1 grid must reduce to the sequential algorithm exactly.
	a := WrapDense(lowRankDense(20, 16, 3, 0.01, 17))
	opts := testOpts(3)
	opts.MaxIter = 4
	seq, _ := RunSequential(a, opts)
	par, err := RunHPC(a, grid.New(1, 1), opts)
	if err != nil {
		t.Fatal(err)
	}
	if d := par.W.MaxDiff(seq.W); d > 1e-9 {
		t.Fatalf("1x1 grid differs from sequential by %g", d)
	}
}

func TestRunRejectsOversplit(t *testing.T) {
	a := WrapDense(lowRankDense(6, 5, 2, 0, 19))
	if _, err := RunNaive(a, 8, testOpts(2)); err == nil {
		t.Fatal("oversplit naive accepted")
	}
	if _, err := RunNaive(a, 0, testOpts(2)); err == nil {
		t.Fatal("naive accepted p = 0")
	}
	if _, err := RunHPC(a, grid.New(8, 1), testOpts(2)); err == nil {
		t.Fatal("oversplit HPC accepted")
	}
	for _, g := range []grid.Grid{{PR: 0, PC: 2}, {PR: 2, PC: -1}, {}} {
		if _, err := RunHPC(a, g, testOpts(2)); err == nil {
			t.Fatalf("HPC accepted the %dx%d grid", g.PR, g.PC)
		}
	}
}

func TestBreakdownPopulated(t *testing.T) {
	a := WrapDense(lowRankDense(32, 24, 3, 0.02, 23))
	opts := testOpts(3)
	opts.MaxIter = 3
	res, err := RunHPC(a, grid.New(2, 2), opts)
	if err != nil {
		t.Fatal(err)
	}
	b := res.Breakdown
	for _, task := range []perf.Task{perf.TaskMM, perf.TaskNLS, perf.TaskGram} {
		if b.Flops[task] == 0 {
			t.Fatalf("no flops recorded for %s", task)
		}
	}
	// The 2x2 grid must have used all three collective types.
	for _, task := range []perf.Task{perf.TaskAllGather, perf.TaskReduceScatter, perf.TaskAllReduce} {
		if b.Msgs[task] == 0 || b.Words[task] == 0 {
			t.Fatalf("no traffic recorded for %s", task)
		}
	}
	if b.ModeledTotal() <= 0 {
		t.Fatal("modeled total is zero")
	}
	if b.MeasuredTotal() <= 0 {
		t.Fatal("measured total is zero")
	}
}

func TestNaiveAllGatherDominatesTraffic(t *testing.T) {
	// The structural claim behind Figure 3: Naive's communication is
	// all in All-Gathers (it has no Reduce-Scatter at all), and its
	// per-iteration word volume ~ (m+n)k exceeds HPC-NMF's.
	a := WrapDense(lowRankDense(64, 48, 4, 0.02, 29))
	opts := Options{K: 4, MaxIter: 3, Seed: 7} // no error computation
	nv, err := RunNaive(a, 4, opts)
	if err != nil {
		t.Fatal(err)
	}
	hpc, err := RunHPC(a, grid.New(2, 2), opts)
	if err != nil {
		t.Fatal(err)
	}
	if nv.Breakdown.Words[perf.TaskReduceScatter] != 0 {
		t.Fatal("naive algorithm performed reduce-scatter")
	}
	if nv.Breakdown.Words[perf.TaskAllGather] == 0 {
		t.Fatal("naive algorithm performed no all-gather")
	}
	nvWords := totalWords(nv)
	hpcWords := totalWords(hpc)
	if hpcWords >= nvWords {
		t.Fatalf("HPC-NMF words %d not less than Naive %d", hpcWords, nvWords)
	}
}

func totalWords(r *Result) int64 {
	var s int64
	for _, w := range r.Breakdown.Words {
		s += w
	}
	return s
}

// TestParallelRunsAreDeterministic: two executions of the same
// parallel configuration must produce bitwise-identical factors —
// goroutine scheduling must not leak into the numerics.
func TestParallelRunsAreDeterministic(t *testing.T) {
	a := WrapDense(lowRankDense(30, 24, 4, 0.05, 131))
	opts := testOpts(4)
	opts.MaxIter = 4
	r1, err := RunHPC(a, grid.New(2, 3), opts)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := RunHPC(a, grid.New(2, 3), opts)
	if err != nil {
		t.Fatal(err)
	}
	if d := r1.W.MaxDiff(r2.W); d != 0 {
		t.Fatalf("two identical runs differ by %g", d)
	}
	if d := r1.H.MaxDiff(r2.H); d != 0 {
		t.Fatalf("two identical runs differ in H by %g", d)
	}
}

// TestQuickGridConsistency fuzzes the central invariant over random
// problem shapes and grids: any (m, n, k, pr, pc) must reproduce the
// sequential factors.
func TestQuickGridConsistency(t *testing.T) {
	f := func(mRaw, nRaw, prRaw, pcRaw, kRaw uint8) bool {
		pr := int(prRaw)%3 + 1
		pc := int(pcRaw)%3 + 1
		k := int(kRaw)%3 + 1
		m := int(mRaw)%20 + pr*pc + k // ensure m ≥ grid and ≥ k
		n := int(nRaw)%20 + pr*pc + k
		a := WrapDense(lowRankDense(m, n, k, 0.05, uint64(m*1000+n)))
		opts := Options{K: k, MaxIter: 2, Seed: 5}
		seq, err := RunSequential(a, opts)
		if err != nil {
			return false
		}
		par, err := RunHPC(a, grid.New(pr, pc), opts)
		if err != nil {
			return false
		}
		return par.W.MaxDiff(seq.W) < 1e-6 && par.H.MaxDiff(seq.H) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestTolGradStopsEarly(t *testing.T) {
	a := WrapDense(lowRankDense(30, 25, 3, 0, 311))
	opts := testOpts(3)
	opts.MaxIter = 60
	// ANLS converges linearly, so realistic projected-gradient
	// tolerances are 1e-2..1e-3 on the norm ratio.
	opts.TolGrad = 1e-2
	res, err := RunSequential(a, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Iterations >= 60 {
		t.Fatalf("TolGrad did not stop early (%d iterations)", res.Iterations)
	}
	// At the stopping point the exactly-rank-3 matrix should be well
	// fit, and a tighter tolerance must run longer.
	if last := res.RelErr[len(res.RelErr)-1]; last > 0.05 {
		t.Fatalf("stopped with relative error %g", last)
	}
	tight := opts
	tight.TolGrad = 1e-3
	res2, err := RunSequential(a, tight)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Iterations < res.Iterations {
		t.Fatalf("tighter TolGrad stopped sooner: %d vs %d", res2.Iterations, res.Iterations)
	}
}

func TestTolGradParallelConsistency(t *testing.T) {
	a := WrapDense(lowRankDense(36, 28, 3, 0.02, 313))
	opts := testOpts(3)
	opts.MaxIter = 40
	opts.TolGrad = 1e-3
	seq, err := RunSequential(a, opts)
	if err != nil {
		t.Fatal(err)
	}
	hpc, err := RunHPC(a, grid.New(2, 2), opts)
	if err != nil {
		t.Fatal(err)
	}
	nv, err := RunNaive(a, 4, opts)
	if err != nil {
		t.Fatal(err)
	}
	if hpc.Iterations != seq.Iterations || nv.Iterations != seq.Iterations {
		t.Fatalf("TolGrad stop diverged: seq %d, hpc %d, naive %d",
			seq.Iterations, hpc.Iterations, nv.Iterations)
	}
	if d := hpc.W.MaxDiff(seq.W); d > 1e-6 {
		t.Fatalf("TolGrad parallel factors differ by %g", d)
	}
}

func TestTolGradRequiresComputeError(t *testing.T) {
	a := WrapDense(lowRankDense(10, 8, 2, 0, 317))
	if _, err := RunSequential(a, Options{K: 2, TolGrad: 1e-3}); err == nil {
		t.Fatal("TolGrad without ComputeError accepted")
	}
}

func TestProjGradSqAtOptimum(t *testing.T) {
	// At an interior optimum H* of min ‖C·H − B‖ with H* > 0, the
	// projected gradient is zero.
	s := rng.New(319)
	c := mat.NewDense(20, 3)
	c.RandomUniform(s)
	hstar := mat.NewDense(3, 5)
	for i := range hstar.Data {
		hstar.Data[i] = 0.5 + s.Float64()
	}
	wtw := gram(c)
	wta := mul(wtw, hstar) // so ∇ = 0 at H*
	if pg := projGradSq(wtw, wta, hstar, nil, nil); pg > 1e-18 {
		t.Fatalf("projected gradient %g at interior optimum", pg)
	}
	// A zero entry with positive gradient contributes nothing (it may
	// not move further into the constraint).
	h0 := hstar.Clone()
	h0.Set(0, 0, 0)
	wta2 := mul(wtw, hstar)
	pg := projGradSq(wtw, wta2, h0, nil, nil)
	grad00 := 2 * (mul(wtw, h0).At(0, 0) - wta2.At(0, 0))
	if grad00 >= 0 {
		// The (0,0) gradient is inward-pointing-infeasible; it must be
		// excluded, so pg only reflects the other entries' changes.
		if pg < 0 {
			t.Fatal("negative norm")
		}
	}
}
