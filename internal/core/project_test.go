package core

import (
	"errors"
	"fmt"
	"math"
	"testing"

	"hpcnmf/internal/mat"
	"hpcnmf/internal/nnls"
	"hpcnmf/internal/rng"
)

// randBasis builds a strictly positive m×k basis.
func randBasis(m, k int, seed uint64) *mat.Dense {
	r := rng.New(seed)
	w := mat.NewDense(m, k)
	for i := range w.Data {
		w.Data[i] = 0.1 + r.Float64()
	}
	return w
}

// TestProjectorRecoversCoefficients: columns synthesized as W·h must
// project back to (approximately) h, with near-zero residual.
func TestProjectorRecoversCoefficients(t *testing.T) {
	const m, k, c = 30, 4, 6
	w := randBasis(m, k, 1)
	hTrue := randBasis(k, c, 2)
	cols := mat.NewDense(m, c)
	mat.ParMulTo(cols, w, hTrue, nil)

	for _, tc := range []struct {
		name   string
		solver nnls.Solver
		tol    float64
	}{
		{"BPP", nil, 1e-8}, // nil selects BPP (exact)
		{"HALS", nnls.NewHALS(200), 1e-4},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p, err := NewProjector(w, tc.solver, nil)
			if err != nil {
				t.Fatal(err)
			}
			h := mat.NewDense(k, c)
			resid := make([]float64, c)
			if _, err := p.ProjectInto(h, cols, resid); err != nil {
				t.Fatal(err)
			}
			for i := range h.Data {
				if math.Abs(h.Data[i]-hTrue.Data[i]) > tc.tol {
					t.Fatalf("h[%d] = %g, want %g", i, h.Data[i], hTrue.Data[i])
				}
			}
			// The byproduct formula ‖c‖²−2hᵀf+hᵀGh cancels nearly to
			// zero here, and sqrt amplifies the rounding, so the
			// residual check is looser than the coefficient check.
			for j, r := range resid {
				if r > 1e-5 {
					t.Fatalf("residual[%d] = %g, want ~0 for exactly representable columns", j, r)
				}
			}
		})
	}
}

// TestProjectorResidualMatchesDirect: the byproduct-based residual must
// agree with the explicitly computed ‖c − W·h‖/‖c‖.
func TestProjectorResidualMatchesDirect(t *testing.T) {
	const m, k, c = 25, 3, 5
	w := randBasis(m, k, 3)
	cols := randBasis(m, c, 4) // not in the basis span: nonzero residual
	p, err := NewProjector(w, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	h := mat.NewDense(k, c)
	resid := make([]float64, c)
	if _, err := p.ProjectInto(h, cols, resid); err != nil {
		t.Fatal(err)
	}
	recon := mat.NewDense(m, c)
	mat.ParMulTo(recon, w, h, nil)
	for j := 0; j < c; j++ {
		num, den := 0.0, 0.0
		for i := 0; i < m; i++ {
			d := cols.At(i, j) - recon.At(i, j)
			num += d * d
			den += cols.At(i, j) * cols.At(i, j)
		}
		want := math.Sqrt(num / den)
		if math.Abs(resid[j]-want) > 1e-9 {
			t.Fatalf("residual[%d] = %g via byproducts, %g direct", j, resid[j], want)
		}
		if want < 1e-3 {
			t.Fatalf("test columns accidentally lie in the basis span (residual %g)", want)
		}
	}
}

// TestProjectorRankDeficientBasis is the satellite regression: a basis
// with duplicated columns (exactly singular Gram) must project via the
// Tikhonov fallback — finite coefficients, small residual, no panic —
// where the batch drivers would have tripped checkFactorSanity.
func TestProjectorRankDeficientBasis(t *testing.T) {
	const m, k = 20, 4
	w := randBasis(m, k, 5)
	for i := 0; i < m; i++ {
		w.Set(i, 2, w.At(i, 1)) // duplicate column: rank(W) = k-1
		w.Set(i, 3, w.At(i, 1))
	}
	cols := mat.NewDense(m, 2)
	for i := 0; i < m; i++ {
		cols.Set(i, 0, 2*w.At(i, 0)+w.At(i, 1))
		cols.Set(i, 1, w.At(i, 1))
	}
	for _, tc := range []struct {
		name   string
		solver nnls.Solver
	}{
		{"BPP", nil},
		{"HALS", nnls.NewHALS(200)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p, err := NewProjector(w, tc.solver, nil)
			if err != nil {
				t.Fatal(err)
			}
			h := mat.NewDense(k, 2)
			resid := make([]float64, 2)
			if _, err := p.ProjectInto(h, cols, resid); err != nil {
				t.Fatalf("rank-deficient projection failed: %v", err)
			}
			if !h.IsFinite() {
				t.Fatal("rank-deficient projection produced non-finite coefficients")
			}
			for j, r := range resid {
				if r > 1e-4 {
					t.Errorf("residual[%d] = %g, want ~0 (columns are in the basis span)", j, r)
				}
			}
		})
	}
}

// failUntilDamped fails unless the Gram diagonal shows added damping,
// making the fallback ladder deterministic to test.
type failUntilDamped struct {
	baseDiag float64 // diagonal of the undamped Gram
	calls    int
	minLam   float64 // smallest damping that "succeeds"
}

func (s *failUntilDamped) Name() string { return "failUntilDamped" }

func (s *failUntilDamped) SolveCtx(_ *nnls.Context, g, f, xInit, dst *mat.Dense) (nnls.Stats, error) {
	s.calls++
	if g.At(0, 0) < s.baseDiag+s.minLam {
		return nnls.Stats{Iterations: 1}, fmt.Errorf("synthetic failure at diag %g", g.At(0, 0))
	}
	dst.Fill(1)
	return nnls.Stats{Iterations: 1}, nil
}

// TestSolveDampedEscalation: the ladder retries with escalating λ until
// the solver accepts, accumulating stats across rungs; a solver that
// never accepts yields an error, not a panic.
func TestSolveDampedEscalation(t *testing.T) {
	const k = 3
	g := mat.NewDense(k, k)
	for i := 0; i < k; i++ {
		g.Set(i, i, 1)
	}
	f := mat.NewDense(k, 2)
	dst := mat.NewDense(k, 2)

	// λ₀ = 1e-10·(tr(G)/k + 1) = 2e-10; demand the third rung (λ₀·step²).
	fake := &failUntilDamped{baseDiag: 1, minLam: 1e-3}
	st, err := solveDamped(fake, nil, g, f, nil, dst)
	if err != nil {
		t.Fatalf("solveDamped: %v", err)
	}
	if fake.calls != 4 { // plain + two failed rungs + accepted third
		t.Errorf("solver called %d times, want 4 (plain, 2 rejected rungs, 1 accepted)", fake.calls)
	}
	if st.Iterations != 4 {
		t.Errorf("stats accumulated %d iterations, want 4 (every attempt counted)", st.Iterations)
	}
	if dst.At(0, 0) != 1 {
		t.Errorf("dst not written by the accepted rung")
	}

	// A solver the ladder cannot save must surface an error.
	hopeless := &failUntilDamped{baseDiag: 1, minLam: math.Inf(1)}
	if _, err := solveDamped(hopeless, nil, g, f, nil, dst); err == nil {
		t.Fatal("solveDamped succeeded with a solver that always fails")
	}
}

// TestProjectorValidation: shape and finiteness misuse is reported as
// errors, never panics.
func TestProjectorValidation(t *testing.T) {
	if _, err := NewProjector(mat.NewDense(0, 0), nil, nil); err == nil {
		t.Error("empty basis accepted")
	}
	bad := mat.NewDense(3, 2)
	bad.Data[0] = math.NaN()
	if _, err := NewProjector(bad, nil, nil); err == nil {
		t.Error("non-finite basis accepted")
	}
	p, err := NewProjector(randBasis(8, 2, 6), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.ProjectInto(mat.NewDense(2, 1), mat.NewDense(5, 1), nil); err == nil {
		t.Error("row-mismatched columns accepted")
	}
	if _, err := p.ProjectInto(mat.NewDense(3, 1), mat.NewDense(8, 1), nil); err == nil {
		t.Error("mis-shaped destination accepted")
	}
	if _, err := p.ProjectInto(mat.NewDense(2, 2), mat.NewDense(8, 2), make([]float64, 1)); err == nil {
		t.Error("short residual buffer accepted")
	}
}

// TestProjectIntoZeroAllocs pins the steady-state contract the serving
// layer builds on: with a workspace-aware solver, repeated ProjectInto
// calls allocate nothing after warm-up.
func TestProjectIntoZeroAllocs(t *testing.T) {
	const m, k, c = 40, 5, 8
	w := randBasis(m, k, 7)
	cols := randBasis(m, c, 8)
	p, err := NewProjector(w, nnls.NewHALS(8), nil)
	if err != nil {
		t.Fatal(err)
	}
	h := mat.NewDense(k, c)
	resid := make([]float64, c)
	// A lone sparse column takes mat.AtxNZ, and a lone −0 entry sends
	// it back to the full product (see ProjectInto).
	sparse := mat.NewDense(m, 1)
	sparse.Data[3], sparse.Data[17], sparse.Data[30] = 2, 0.5, 7
	underflow := mat.NewDense(m, 1)
	underflow.Data[5] = -5e-324 // W·c underflows to −0
	h1, resid1 := mat.NewDense(k, 1), make([]float64, 1)
	round := func() {
		if _, err := p.ProjectInto(h, cols, resid); err != nil {
			t.Fatal(err)
		}
		for _, col := range []*mat.Dense{sparse, underflow} {
			if _, err := p.ProjectInto(h1, col, resid1); err != nil {
				t.Fatal(err)
			}
		}
	}
	round()
	round()
	if allocs := testing.AllocsPerRun(10, round); allocs != 0 {
		t.Errorf("steady-state ProjectInto allocates %v times per call, want 0", allocs)
	}
}

// TestProjectSingleColumnEqualsBatchColumn pins what the serving
// batcher relies on when it coalesces requests: a column projected
// alone (WᵀC through mat.AtxNZ) gets the same coefficients and
// residual, bit for bit, as the same column inside a 32-column batch
// (the full product). The columns are dense, or sparse: 95 % zeros,
// a fifth of those −0, and in column 0 only a negative subnormal whose
// products underflow to −0, which must be sent back to the full
// product.
func TestProjectSingleColumnEqualsBatchColumn(t *testing.T) {
	const m, k, c = 203, 50, 32
	w := randBasis(m, k, 11)
	dense := randBasis(m, c, 12)
	sparse := mat.NewDense(m, c)
	r := rng.New(13)
	for i := range sparse.Data {
		switch u := r.Float64(); {
		case u < 0.05:
			sparse.Data[i] = r.Float64()
		case u < 0.24:
			sparse.Data[i] = math.Copysign(0, -1)
		}
	}
	for i := 0; i < m; i++ {
		sparse.Set(i, 0, 0)
	}
	sparse.Set(2, 0, -5e-324)
	for _, tc := range []struct {
		name   string
		solver func() nnls.Solver
	}{
		{"BPP", func() nnls.Solver { return nnls.NewBPP() }},
		{"MU", func() nnls.Solver { return nnls.NewMU(20) }},
		// An odd sweep count keeps the sign of a ±0 in f in h.
		{"MU1", func() nnls.Solver { return nnls.NewMU(1) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p, err := NewProjector(w, tc.solver(), nil)
			if err != nil {
				t.Fatal(err)
			}
			for _, cols := range []*mat.Dense{dense, sparse} {
				batch := mat.NewDense(k, c)
				batchResid := make([]float64, c)
				if _, err := p.ProjectInto(batch, cols, batchResid); err != nil {
					t.Fatal(err)
				}
				one := mat.NewDense(k, 1)
				oneResid := make([]float64, 1)
				for j := 0; j < c; j++ {
					if _, err := p.ProjectInto(one, cols.SubmatrixCols(j, j+1), oneResid); err != nil {
						t.Fatal(err)
					}
					for i := 0; i < k; i++ {
						if got, want := one.At(i, 0), batch.At(i, j); math.Float64bits(got) != math.Float64bits(want) {
							t.Fatalf("sparse=%v column %d: h[%d] alone = %x (%g), in the batch = %x (%g)", cols == sparse, j, i,
								math.Float64bits(got), got, math.Float64bits(want), want)
						}
					}
					if math.Float64bits(oneResid[0]) != math.Float64bits(batchResid[j]) {
						t.Fatalf("sparse=%v column %d: residual alone = %g, in the batch = %g", cols == sparse, j, oneResid[0], batchResid[j])
					}
				}
			}
		})
	}
}

// TestProjectorNonFiniteRefreshedBasisFails: a basis made non-finite in
// place, then refreshed, must fail a projection with an error that
// names the basis, for every solver, for a lone column that is zero
// under the +Inf and for a batch. Left to solve, the full product's
// 0·Inf is a NaN, which BPP answers with zero coefficients, a NaN
// residual and no error; the zero-skipping lone product never sees it.
func TestProjectorNonFiniteRefreshedBasisFails(t *testing.T) {
	const m, k = 12, 3
	for _, s := range []nnls.Solver{nnls.NewBPP(), nnls.NewPGD(20), nnls.NewMU(1), nnls.NewMU(20), nnls.NewHALS(20)} {
		w := randBasis(m, k, 14)
		p, err := NewProjector(w, s, nil)
		if err != nil {
			t.Fatal(err)
		}
		cols := mat.NewDense(m, 2)
		cols.Set(1, 0, 1)
		cols.Set(7, 0, 2)
		cols.Set(3, 1, 1)
		for _, c := range []*mat.Dense{cols.SubmatrixCols(0, 1), cols} {
			h := mat.NewDense(k, c.Cols)
			if _, err := p.ProjectInto(h, c, nil); err != nil {
				t.Fatal(err)
			}
		}
		w.Set(4, 1, math.Inf(1))
		p.RefreshGram()
		for _, c := range []*mat.Dense{cols.SubmatrixCols(0, 1), cols} {
			h := mat.NewDense(k, c.Cols)
			_, err := p.ProjectInto(h, c, make([]float64, c.Cols))
			if !errors.Is(err, errBasisNotFinite) {
				t.Errorf("%s, %d columns: projection onto a basis holding +Inf returned %v, want the non-finite basis refused: h = %v", s.Name(), c.Cols, err, h.Data)
			}
		}
	}
}

// FuzzProjectLoneColumn holds a lone column's projection, which takes
// mat.AtxNZ, to the same column inside a two-column batch, which
// takes the full WᵀC product: the error, the coefficients and the
// residual must agree bit for bit. Column entries mix ±0, subnormals,
// negatives, NaN and ±Inf; basis entries are finite and mix ±0,
// subnormals and negatives, so products underflow to ±0. Widths reach
// past AtxNZ's 48-column strip. The first seed's lone product ends at
// −0 where the full product ends at +0, so it needs the recompute; MU
// shows the sign in its coefficients.
func FuzzProjectLoneColumn(f *testing.F) {
	f.Add(uint8(1), uint8(0), uint8(1), []byte{4, 0, 1, 2})
	f.Add(uint8(9), uint8(4), uint8(0), []byte{0, 0, 9, 1, 0, 6, 0, 2, 12, 0, 3, 8})
	f.Add(uint8(17), uint8(3), uint8(2), []byte{1, 0, 0, 13, 0, 4, 0, 0, 14, 2})
	f.Add(uint8(40), uint8(7), uint8(1), []byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15})
	f.Add(uint8(33), uint8(49), uint8(0), []byte{0, 3, 0, 0, 12, 0, 5, 1, 0, 0, 0, 13, 2, 9, 0})
	colVals := []float64{0, math.Copysign(0, -1), 0.5, 5e-324, -5e-324, 0, 3, -2, 1e-310, 0, 1e300,
		-1e-310, math.NaN(), math.Inf(1), math.Inf(-1), 0}
	basisVals := []float64{0, 0.25, 1, -0.75, 5e-324, math.Copysign(0, -1), 2, -1e-310, 0.4, -3, 1e-300, 1.5}
	f.Fuzz(func(t *testing.T, mb, kb, sb uint8, vals []byte) {
		m, k := 1+int(mb)%40, 1+int(kb)%60
		pick := func(i int) int {
			if len(vals) == 0 {
				return 0
			}
			return int(vals[i%len(vals)]) + 7*(i/len(vals))
		}
		w := mat.NewDense(m, k)
		for i := range w.Data {
			w.Data[i] = basisVals[pick(m+i)%len(basisVals)]
		}
		pair := mat.NewDense(m, 2)
		for i := 0; i < m; i++ {
			v := colVals[pick(i)%len(colVals)]
			pair.Set(i, 0, v)
			pair.Set(i, 1, v)
		}
		solver := []func() nnls.Solver{
			func() nnls.Solver { return nnls.NewBPP() },
			func() nnls.Solver { return nnls.NewMU(3) },
			func() nnls.Solver { return nnls.NewHALS(3) },
		}[int(sb)%3]
		p, err := NewProjector(w, solver(), nil)
		if err != nil {
			t.Fatal(err)
		}
		one, oneResid := mat.NewDense(k, 1), make([]float64, 1)
		_, oneErr := p.ProjectInto(one, pair.SubmatrixCols(0, 1), oneResid)
		batch, batchResid := mat.NewDense(k, 2), make([]float64, 2)
		_, batchErr := p.ProjectInto(batch, pair, batchResid)
		if (oneErr == nil) != (batchErr == nil) {
			t.Fatalf("alone: %v; in the batch: %v", oneErr, batchErr)
		}
		if oneErr != nil {
			return
		}
		for i := 0; i < k; i++ {
			if got, want := one.At(i, 0), batch.At(i, 0); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("h[%d] alone = %x (%g), in the batch = %x (%g)", i, math.Float64bits(got), got, math.Float64bits(want), want)
			}
		}
		if got, want := oneResid[0], batchResid[0]; math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("residual alone = %x (%g), in the batch = %x (%g)", math.Float64bits(got), got, math.Float64bits(want), want)
		}
	})
}
