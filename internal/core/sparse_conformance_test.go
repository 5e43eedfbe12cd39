package core

import (
	"math"
	"testing"

	"hpcnmf/internal/grid"
	"hpcnmf/internal/rng"
	"hpcnmf/internal/sparse"
)

// TestSparseConformanceAllGridsMatchSequential is the sparse leg of
// the differential grid conformance suite: on a sparse data matrix,
// every pr×pc factorization of every p in {1, 2, 4, 6} must produce
// the same factors as the sequential sparse driver from the same
// seed, for each update rule (MU, HALS, PGD, BPP) — and the
// sequential sparse run must itself agree with a sequential run on
// the densified matrix, pinning the CSR kernels against the dense
// path end to end. Each algorithm is a named subtest for CI's
// per-algorithm matrix legs; CI runs every leg under -race as part
// of the `conformance` job.
func TestSparseConformanceAllGridsMatchSequential(t *testing.T) {
	const m, n, k = 48, 40, 4
	sp := sparse.RandomER(m, n, 0.2, rng.New(17))
	aSp := WrapSparse(sp)
	aDn := WrapDense(sp.ToDense())
	for _, solver := range conformanceSolvers {
		t.Run(solver.String(), func(t *testing.T) {
			opts := Options{K: k, MaxIter: 5, Seed: 11, Solver: solver, ComputeError: true}
			seqSp, err := RunSequential(aSp, opts)
			if err != nil {
				t.Fatalf("sequential sparse: %v", err)
			}
			seqDn, err := RunSequential(aDn, opts)
			if err != nil {
				t.Fatalf("sequential dense: %v", err)
			}
			if d := seqSp.W.MaxDiff(seqDn.W); d > 1e-6 {
				t.Errorf("sparse W diverges from dense by %g", d)
			}
			if d := seqSp.H.MaxDiff(seqDn.H); d > 1e-6 {
				t.Errorf("sparse H diverges from dense by %g", d)
			}
			for i := range seqSp.RelErr {
				if math.Abs(seqSp.RelErr[i]-seqDn.RelErr[i]) > 1e-8 {
					t.Errorf("sparse RelErr[%d] = %v, dense %v", i, seqSp.RelErr[i], seqDn.RelErr[i])
					break
				}
			}
			for _, p := range []int{1, 2, 4, 6} {
				for _, g := range grid.Factorizations(p) {
					par, err := RunHPC(aSp, g, opts)
					if err != nil {
						t.Fatalf("sparse grid %dx%d: %v", g.PR, g.PC, err)
					}
					if d := par.W.MaxDiff(seqSp.W); d > 1e-6 {
						t.Errorf("sparse grid %dx%d: W diverges from sequential by %g", g.PR, g.PC, d)
					}
					if d := par.H.MaxDiff(seqSp.H); d > 1e-6 {
						t.Errorf("sparse grid %dx%d: H diverges from sequential by %g", g.PR, g.PC, d)
					}
					if len(par.RelErr) != len(seqSp.RelErr) {
						t.Errorf("sparse grid %dx%d: %d error samples, sequential %d",
							g.PR, g.PC, len(par.RelErr), len(seqSp.RelErr))
						continue
					}
					for i := range par.RelErr {
						if math.Abs(par.RelErr[i]-seqSp.RelErr[i]) > 1e-8 {
							t.Errorf("sparse grid %dx%d: RelErr[%d] = %v, sequential %v",
								g.PR, g.PC, i, par.RelErr[i], seqSp.RelErr[i])
							break
						}
					}
				}
			}
		})
	}
}

// TestSparseKernelThreadsBitwisePooled repeats the KernelThreads
// bitwise contract on a sparse matrix big enough (≈12k nnz, above the
// kernels' serial-fallback threshold) that the pooled nnz-balanced
// code paths actually execute — the alloc_test case sits below the
// threshold and only proves the serial fallback.
func TestSparseKernelThreadsBitwisePooled(t *testing.T) {
	sp := sparse.RandomER(300, 200, 0.2, rng.New(41))
	if sp.NNZ() < 1<<13 {
		t.Fatalf("fixture has %d nnz, below the serial-fallback threshold — pooled path untested", sp.NNZ())
	}
	a := WrapSparse(sp)
	base := Options{K: 4, MaxIter: 4, Seed: 9, ComputeError: true, Solver: SolverHALS}
	run := func(threads int) [2]*Result {
		opts := base
		opts.KernelThreads = threads
		seq, err := RunSequential(a, opts)
		if err != nil {
			t.Fatal(err)
		}
		hp, err := RunHPC(a, grid.Grid{PR: 2, PC: 2}, opts)
		if err != nil {
			t.Fatal(err)
		}
		return [2]*Result{seq, hp}
	}
	serial := run(1)
	pooled := run(4)
	for i, name := range []string{"sequential", "hpc"} {
		if d := serial[i].W.MaxDiff(pooled[i].W); d != 0 {
			t.Errorf("%s: W differs by %g between KernelThreads=1 and 4", name, d)
		}
		if d := serial[i].H.MaxDiff(pooled[i].H); d != 0 {
			t.Errorf("%s: H differs by %g between KernelThreads=1 and 4", name, d)
		}
		for j := range serial[i].RelErr {
			if serial[i].RelErr[j] != pooled[i].RelErr[j] {
				t.Errorf("%s: RelErr[%d] differs", name, j)
			}
		}
	}
}

// TestSparseAutoGridPricesSkew: on a skewed sparse matrix the
// autotuned path must run, record its pick, and agree with an
// explicit run on the same grid — exercising the heaviest-block
// pricing rule end to end.
func TestSparseAutoGridPricesSkew(t *testing.T) {
	sp := sparse.RandomPowerLaw(64, 4, rng.New(29))
	a := WrapSparse(sp)
	opts := Options{K: 4, MaxIter: 3, Seed: 9, Solver: SolverHALS}
	res, err := RunParallelAuto(a, 4, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !res.GridAuto {
		t.Error("GridAuto not set on the sparse autotuned path")
	}
	if res.Grid.PR*res.Grid.PC != 4 {
		t.Errorf("Result.Grid = %v, not a factorization of 4", res.Grid)
	}
	exp, err := RunHPC(a, res.Grid, opts)
	if err != nil {
		t.Fatal(err)
	}
	if d := res.W.MaxDiff(exp.W); d != 0 {
		t.Errorf("sparse autotuned run differs from explicit run on its grid by %g", d)
	}
}
