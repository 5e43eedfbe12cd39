package nnls

import (
	"testing"

	"hpcnmf/internal/mat"
	"hpcnmf/internal/par"
	"hpcnmf/internal/rng"
)

// randomSPD returns a random k×k symmetric positive definite Gram.
func randomSPD(k int, seed uint64) *mat.Dense {
	s := rng.New(seed)
	c := mat.NewDense(k+3, k)
	for i := range c.Data {
		c.Data[i] = s.Float64()
	}
	return gram(c)
}

func randomRHS(k, r int, seed uint64) *mat.Dense {
	s := rng.New(seed)
	f := mat.NewDense(k, r)
	for i := range f.Data {
		f.Data[i] = 2*s.Float64() - 0.5
	}
	return f
}

// TestSolveCtxMatchesSolve checks the context path (workspace, pool,
// in-place destination) is bitwise identical to the allocating Solve
// for every row of Methods.
func TestSolveCtxMatchesSolve(t *testing.T) {
	pool := par.NewPool(3)
	defer pool.Close()
	for _, m := range Methods {
		sv := m.New(4)
		for _, shape := range []struct{ k, r int }{{1, 1}, {5, 7}, {16, 40}} {
			g := randomSPD(shape.k, uint64(shape.k))
			f := randomRHS(shape.k, shape.r, uint64(100+shape.r))
			xInit := randomRHS(shape.k, shape.r, 7)
			xInit.ClampNonneg()

			want, _, err := solve(sv, g, f, xInit)
			if err != nil {
				t.Fatalf("%s Solve: %v", sv.Name(), err)
			}
			for _, ctx := range []*Context{nil, {WS: mat.NewWorkspace()}, {WS: mat.NewWorkspace(), Pool: pool}} {
				dst := mat.NewDense(shape.k, shape.r)
				dst.Fill(42) // dirty destination must not leak through
				if _, err := SolveWith(sv, ctx, g, f, xInit, dst); err != nil {
					t.Fatalf("%s SolveWith: %v", sv.Name(), err)
				}
				if d := want.MaxDiff(dst); d != 0 {
					t.Errorf("%s k=%d r=%d ctx=%v: SolveWith differs from Solve by %g", sv.Name(), shape.k, shape.r, ctx != nil, d)
				}
			}
			// In-place warm start: xInit aliased to dst.
			dst := xInit.Clone()
			if _, err := sv.SolveCtx(nil, g, f, dst, dst); err != nil {
				t.Fatalf("%s in-place SolveCtx: %v", sv.Name(), err)
			}
			if d := want.MaxDiff(dst); d != 0 {
				t.Errorf("%s in-place SolveCtx differs by %g", sv.Name(), d)
			}
		}
	}
}

// TestSolveCtxColdStart checks nil xInit matches between paths.
func TestSolveCtxColdStart(t *testing.T) {
	g := randomSPD(6, 3)
	f := randomRHS(6, 9, 4)
	for _, sv := range []Solver{NewMU(3), NewHALS(3), NewPGD(3), NewBPP()} {
		want, _, err := solve(sv, g, f, nil)
		if err != nil {
			t.Fatal(err)
		}
		dst := mat.NewDense(6, 9)
		if _, err := sv.SolveCtx(&Context{WS: mat.NewWorkspace()}, g, f, nil, dst); err != nil {
			t.Fatal(err)
		}
		if d := want.MaxDiff(dst); d != 0 {
			t.Errorf("%s cold start differs by %g", sv.Name(), d)
		}
	}
}

// TestSolveCtxZeroAllocs is the arena's contract at the solver layer:
// after one warm-up call, a steady-state SolveCtx with a workspace
// performs no heap allocations (serial pool — the pooled path pays a
// small per-call bookkeeping allocation).
func TestSolveCtxZeroAllocs(t *testing.T) {
	g := randomSPD(12, 9)
	f := randomRHS(12, 30, 11)
	for _, sv := range []Solver{NewMU(2), NewHALS(2), NewPGD(2), NewBPP()} {
		ctx := &Context{WS: mat.NewWorkspace()}
		x := mat.NewDense(12, 30)
		x.Fill(1)
		round := func() {
			if _, err := sv.SolveCtx(ctx, g, f, x, x); err != nil {
				t.Fatal(err)
			}
		}
		round() // warm up the arena
		if allocs := testing.AllocsPerRun(20, round); allocs != 0 {
			t.Errorf("%s steady-state SolveCtx allocates %v times per call", sv.Name(), allocs)
		}
	}
}
