// Ablation benchmarks for the design decisions DESIGN.md defends with a
// number (decisions 1, 3, 4 and the §7 solver trade). Every other
// measurement lives in benchmark/ (see BENCHMARK.json); the paper's
// figures and tables are regenerated by cmd/nmfbench.
package hpcnmf_test

import (
	"testing"

	"hpcnmf/internal/core"
	"hpcnmf/internal/datasets"
	"hpcnmf/internal/mat"
	"hpcnmf/internal/mpi"
	"hpcnmf/internal/nnls"
	"hpcnmf/internal/rng"
)

// BenchmarkAblationCollectives compares the O(log p) tree all-gather
// against the naive linear exchange at p=16: same words, 4x the
// critical-path messages (decision 1).
func BenchmarkAblationCollectives(b *testing.B) {
	const p = 16
	const words = 4096
	for _, variant := range []string{"tree", "linear"} {
		b.Run(variant, func(b *testing.B) {
			var msgs int64
			for i := 0; i < b.N; i++ {
				mpi.NewWorld(p).Run(func(c *mpi.Comm) {
					data := make([]float64, words)
					counts := make([]int, p)
					for j := range counts {
						counts[j] = words
					}
					for rep := 0; rep < 8; rep++ {
						if variant == "tree" {
							c.AllGatherV(data, counts)
						} else {
							c.AllGatherLinear(data, counts)
						}
					}
					if c.Rank() == 0 {
						msgs = c.Counters().Get(mpi.CatAllGather).Msgs
					}
				})
			}
			b.ReportMetric(float64(msgs)/8, "msgs/op")
		})
	}
}

// BenchmarkAblationBPPGrouping quantifies the passive-set column
// grouping optimization (decision 3): grouped columns share one
// Cholesky factorization.
func BenchmarkAblationBPPGrouping(b *testing.B) {
	k, r := 50, 400
	s := rng.New(9)
	c := mat.NewDense(300, k)
	c.RandomUniform(s)
	g := mat.NewDense(k, k)
	mat.ParGramTo(g, c, nil)
	bm := mat.NewDense(300, r)
	for i := range bm.Data {
		bm.Data[i] = s.Float64()*2 - 0.5
	}
	f := mat.NewDense(k, r)
	mat.ParMulAtBTo(f, c, bm, nil)
	for _, grouping := range []bool{true, false} {
		name := "grouped"
		if !grouping {
			name = "percolumn"
		}
		b.Run(name, func(b *testing.B) {
			solver := &nnls.BPP{Grouping: grouping}
			x := mat.NewDense(k, r)
			for i := 0; i < b.N; i++ {
				if _, err := solver.SolveCtx(nil, g, f, nil, x); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationSolvers compares the local NLS methods at equal
// problem size (the paper's §7 discussion: BPP costs more per
// iteration but converges in fewer outer iterations).
func BenchmarkAblationSolvers(b *testing.B) {
	a := core.WrapDense(datasets.DSYN(432, 288, 42))
	for _, kind := range []core.SolverKind{core.SolverBPP, core.SolverMU, core.SolverHALS} {
		b.Run(kind.String(), func(b *testing.B) {
			opts := core.Options{K: 20, MaxIter: 2, Seed: 42, Solver: kind, Sweeps: 1}
			for i := 0; i < b.N; i++ {
				if _, err := core.RunSequential(a, opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationObjective quantifies DESIGN decision 4: the
// byproduct-based objective (‖A‖² − 2⟨WᵀA,H⟩ + ⟨WᵀW,HHᵀ⟩) versus
// forming the full residual A − W·H.
func BenchmarkAblationObjective(b *testing.B) {
	ds, err := datasets.ByName("dsyn", 0.5, 42)
	if err != nil {
		b.Fatal(err)
	}
	d, _ := core.UnwrapDense(ds.Matrix)
	m, n := d.Rows, d.Cols
	const k = 50
	w := mat.NewDense(m, k)
	w.RandomUniform(rng.New(1))
	h := mat.NewDense(k, n)
	h.RandomUniform(rng.New(2))
	normA2 := d.SquaredFrobeniusNorm()
	b.Run("byproduct", func(b *testing.B) {
		// The iteration already owns WᵀA and WᵀW; only the Gram of H
		// and two dots are extra.
		wta := mat.NewDense(k, n)
		mat.ParMulAtBTo(wta, w, d, nil)
		wtw := mat.NewDense(k, k)
		mat.ParGramTo(wtw, w, nil)
		hg := mat.NewDense(k, k)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			mat.ParGramTTo(hg, h, nil)
			_ = normA2 - 2*mat.Dot(wta, h) + mat.Dot(wtw, hg)
		}
	})
	b.Run("residual", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			r := mul(w, h)
			for j, v := range d.Data {
				r.Data[j] -= v
			}
			_ = r.SquaredFrobeniusNorm()
		}
	})
}
