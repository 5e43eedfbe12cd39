package core

import (
	"fmt"
	"testing"

	"hpcnmf/internal/mat"
	"hpcnmf/internal/par"
	"hpcnmf/internal/rng"
	"hpcnmf/internal/sparse"
)

// newSeqRank builds the single-rank state runLayout builds for
// seqLayout, for tests that drive rankState.step directly.
func newSeqRank(t *testing.T, src productSource, m, n int, normA2 func() float64, opts Options) *rankState {
	t.Helper()
	opts, err := opts.withDefaults(m, n)
	if err != nil {
		t.Fatal(err)
	}
	pool := par.NewPool(opts.KernelThreads)
	t.Cleanup(pool.Close)
	s := newRankState(opts, normA2, pool, newRankBooks(nil), nil, nil)
	s.lay = newSeqLayout(s, src, m, n)
	return s
}

// TestSequentialStepZeroAllocs is a headline acceptance criterion:
// after warm-up, a steady-state step of the shared skeleton under the
// sequential layout performs zero heap allocations at the default KernelThreads=1 with
// any built-in updater — the workspace-aware sweeps and BPP, whose
// chunk scratch lives on the solver instance — for dense and sparse
// A, with and without the objective computation, and with
// regularization (whose Gram/RHS copies come from the arena too).
func TestSequentialStepZeroAllocs(t *testing.T) {
	dense := WrapDense(lowRankDense(60, 45, 5, 0.01, 11))
	sp := WrapSparse(sparse.RandomER(60, 45, 0.2, rng.New(12)))
	wide := WrapDense(lowRankDense(40, 8192, 5, 0.01, 13)) // two fold blocks (seqLayout.panel)
	cases := []struct {
		name string
		a    Matrix
		opts Options
	}{
		{"dense/MU", dense, Options{K: 5, MaxIter: 200, Solver: SolverMU, Sweeps: 2, ComputeError: true}},
		// k=11: two packed panels per product, the second ragged.
		{"dense/MU/k11", dense, Options{K: 11, MaxIter: 200, Solver: SolverMU, ComputeError: true}},
		{"dense/HALS/noErr", dense, Options{K: 5, MaxIter: 200, Solver: SolverHALS}},
		{"dense/PGD/reg", dense, Options{K: 5, MaxIter: 200, Solver: SolverPGD, L2W: 0.1, L1H: 0.05}},
		{"dense/BPP", dense, Options{K: 5, MaxIter: 200, Solver: SolverBPP, ComputeError: true}},
		{"dense/BPP/reg", dense, Options{K: 5, MaxIter: 200, Solver: SolverBPP, L2W: 0.1, L1H: 0.05}},
		{"dense/BPP/fold", wide, Options{K: 5, MaxIter: 200, Solver: SolverBPP, ComputeError: true}},
		{"sparse/MU", sp, Options{K: 5, MaxIter: 200, Solver: SolverMU, ComputeError: true}},
		{"sparse/HALS", sp, Options{K: 5, MaxIter: 200, Solver: SolverHALS, ComputeError: true}},
		{"sparse/BPP", sp, Options{K: 5, MaxIter: 200, Solver: SolverBPP, ComputeError: true}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m, n := tc.a.Dims()
			s := newSeqRank(t, inCore{tc.a}, m, n, trackedNorm(tc.a, tc.opts), tc.opts)
			it := 0
			round := func() {
				if err := s.step(it); err != nil {
					t.Fatal(err)
				}
				it++
			}
			round() // warm up the workspace arena
			round()
			if allocs := testing.AllocsPerRun(10, round); allocs != 0 {
				t.Errorf("steady-state step allocates %v times per iteration", allocs)
			}
		})
	}
}

// TestComputePathZeroAllocs covers the kernel helpers every driver's
// iteration is built from (the naive and HPC drivers necessarily
// allocate in their simulated collectives, so their compute path is
// pinned here instead): the data-matrix products (whose tile-kernel
// pack buffers come from the arena) and the factor Gram, the projected
// gradient, and the regularized-subproblem assembly all run
// allocation-free against a warmed workspace.
func TestComputePathZeroAllocs(t *testing.T) {
	const m, n, k = 50, 35, 4
	dense := WrapDense(lowRankDense(m, n, k, 0.01, 21))
	sp := WrapSparse(sparse.RandomER(m, n, 0.2, rng.New(22)))
	w := mat.NewDense(m, k)
	w.RandomUniform(rng.New(23))
	h := mat.NewDense(k, n)
	h.RandomUniform(rng.New(24))
	aht := mat.NewDense(m, k)
	wta := mat.NewDense(k, n)
	wtw := gram(w)
	hGram := mat.NewDense(k, k)
	ws := mat.NewWorkspace()

	for _, tc := range []struct {
		name string
		a    Matrix
	}{{"dense", dense}, {"sparse", sp}} {
		t.Run(tc.name, func(t *testing.T) {
			bt := mat.NewDense(n, k)
			h.TTo(bt)
			steady := func() {
				mulBtInto(aht, tc.a, bt, ws, nil)
				mat.ParGramTo(hGram, bt, nil)
				mulAtBInto(wta, tc.a, w, ws, nil)
				_ = projGradSq(wtw, wta, h, ws, nil)
				g, f, gTmp, fTmp := applyRegInto(ws, wtw, wta, 0.1, 0.05)
				_, _ = g, f
				ws.Put(gTmp)
				ws.Put(fTmp)
			}
			steady() // warm up the arena
			if allocs := testing.AllocsPerRun(10, steady); allocs != 0 {
				t.Errorf("compute path allocates %v times per pass", allocs)
			}
		})
	}
}

// TestKernelThreadsBitwiseEquivalent checks the contract the kernel
// layer promises the drivers: every algorithm computes bitwise
// identical factors and error histories regardless of KernelThreads.
// The BPP leg is the NLS's half of it: its input is wide enough that
// every rank's W- and H-solve is cut into three or more column chunks
// with a ragged last one (2100/4 = 525 columns at the narrowest), which
// the pool's workers claim in whatever order they get to them.
func TestKernelThreadsBitwiseEquivalent(t *testing.T) {
	hals := Options{K: 4, MaxIter: 6, Seed: 9, ComputeError: true, Solver: SolverHALS, Sweeps: 2}
	bpp := Options{K: 4, MaxIter: 3, Seed: 9, ComputeError: true, Solver: SolverBPP}
	legs := []struct {
		name    string
		a       Matrix
		opts    Options
		threads []int
	}{
		{"dense/HALS", WrapDense(lowRankDense(37, 29, 4, 0.02, 31)), hals, []int{4}},
		{"sparse/HALS", WrapSparse(sparse.RandomER(37, 29, 0.25, rng.New(32))), hals, []int{4}},
		{"sparse/BPP", WrapSparse(sparse.RandomER(2300, 2100, 0.004, rng.New(33))), bpp, []int{2, 3}},
	}
	run := func(a Matrix, opts Options, threads int) [3]*Result {
		opts.KernelThreads = threads
		seq, err := RunSequential(a, opts)
		if err != nil {
			t.Fatal(err)
		}
		nv, err := RunNaive(a, 3, opts)
		if err != nil {
			t.Fatal(err)
		}
		hp, err := RunParallelAuto(a, 4, opts)
		if err != nil {
			t.Fatal(err)
		}
		return [3]*Result{seq, nv, hp}
	}
	for _, leg := range legs {
		serial := run(leg.a, leg.opts, 1)
		for _, threads := range leg.threads {
			pooled := run(leg.a, leg.opts, threads)
			for i, layout := range []string{"sequential", "naive", "hpc"} {
				name := fmt.Sprintf("%s/%s KernelThreads=%d", leg.name, layout, threads)
				if d := serial[i].W.MaxDiff(pooled[i].W); d != 0 {
					t.Errorf("%s: W differs from KernelThreads=1 by %g", name, d)
				}
				if d := serial[i].H.MaxDiff(pooled[i].H); d != 0 {
					t.Errorf("%s: H differs from KernelThreads=1 by %g", name, d)
				}
				for j := range serial[i].RelErr {
					if serial[i].RelErr[j] != pooled[i].RelErr[j] {
						t.Errorf("%s: RelErr[%d] differs from KernelThreads=1", name, j)
					}
				}
			}
		}
	}
}
