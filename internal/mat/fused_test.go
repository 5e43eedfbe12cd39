package mat

import (
	"fmt"
	"math"
	"testing"
)

// Operands on which one fused multiply-add and a multiply-then-add
// round differently: fa·fb = 1 − 2⁻⁵⁴ exactly, which a separate
// multiply rounds to 1 (a tie, to even), so
//
//	fma(fa, fb, −1) = −2⁻⁵⁴   but   fa·fb + (−1) = 0,
//
// and fa² = 1 + 2⁻²⁶ + 2⁻⁵⁴, which a separate multiply rounds to
// 1 + 2⁻²⁶, so fma(fa, fa, −1) = 2⁻²⁶ + 2⁻⁵⁴ but fa·fa + (−1) = 2⁻²⁶.
const (
	fa       = 1 + 0x1p-27
	fb       = 1 - 0x1p-27
	fusedAB  = -0x1p-54          // fma(fa, fb, −1)
	fusedAA  = 0x1p-26 + 0x1p-54 // fma(fa, fa, −1)
	unfusedA = 0x1p-26           // fa·fa + (−1), each rounded
)

// wantBits fails when got is not want bit for bit.
func wantBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if i := diffBits(got, want); i >= 0 {
		t.Errorf("%s: entry %d = %g (%x), want the fused %g (%x)", what, i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
	}
}

func filled(n int, v float64) []float64 {
	s := make([]float64, n)
	for i := range s {
		s[i] = v
	}
	return s
}

// TestPrimitivesAreFused holds every dispatch level to one fused
// multiply-add per term, on operands where a multiply-then-add rounds
// differently: each instruction position of the primitives in turn
// (every term of Axpy4, vector body and scalar tail; every row, step,
// chunk and masked or full vector of the strided tile; every unroll
// step and vector of the packed tile, one panel or two, full and
// ragged; every lane and entry of AtxNZ), Gram's diagonal, the
// substitution of CholSolveInto down a vector and by Axpy, and every
// reference loop.
func TestPrimitivesAreFused(t *testing.T) {
	var x, y float64 = fa, fb
	if float64(x*y)-1 != 0 || math.FMA(x, y, -1) != fusedAB || float64(x*x)-1 != unfusedA || math.FMA(x, x, -1) != fusedAA {
		t.Fatal("the probe operands no longer separate fused from unfused rounding")
	}
	restoreISA(t)
	for _, isa := range SupportedISAs() {
		if err := SetISA(isa); err != nil {
			t.Fatal(err)
		}
		t.Run(isa, func(t *testing.T) {
			checkAxpysFused(t)
			checkStridedFused(t)
			checkTileFused(t)
			checkAtxFused(t)
			checkGramFused(t)
			checkSubstitutionFused(t)
			checkRefsFused(t)
		})
	}
}

// checkAxpysFused puts fa on one term position at a time — its b row
// holding fb, c holding −1 — with zeros on the others, which add an
// exact zero fused or not, at lengths 1–9 (vector body and tail); the
// two-row positions are the strided tile's C += V·B with V 2×4.
func checkAxpysFused(t *testing.T) {
	for n := 1; n <= 9; n++ {
		b := filled(n, fb)
		for p := range 8 {
			var vw [8]float64
			vw[p] = fa
			c := stridedVB(axpyCase{n: n, c0: filled(n, -1), c1: filled(n, -1), b0: b, b1: b, b2: b, b3: b, vw: vw})
			w0, w1 := filled(n, -1), filled(n, fusedAB)
			if p < 4 {
				w0, w1 = w1, w0
			}
			wantBits(t, fmt.Sprintf("strided V·B n=%d term %d, row 0", n, p), c[:n], w0)
			wantBits(t, fmt.Sprintf("strided V·B n=%d term %d, row 1", n, p), c[n:], w1)
			if p < 4 {
				c := filled(n, -1)
				Axpy4(c, b, b, b, b, (*[4]float64)(vw[:4]))
				wantBits(t, fmt.Sprintf("Axpy4 n=%d term %d", n, p), c, filled(n, fusedAB))
			}
		}
		c := filled(n, -1)
		Axpy(c, b, fa)
		wantBits(t, fmt.Sprintf("Axpy n=%d", n), c, filled(n, fusedAB))
	}
}

// checkStridedFused runs C += Aᵀ·B on the strided tile with C at −1,
// A and B zero but for row p (fa across A's, fb across B's), at every
// p of the first chunk's edges and the second chunk's, for C of 1–5
// rows (a ragged and a second row block) and 1–17 columns (masked and
// full vectors, one strip and two at every level): every entry is
// fusedAB, carried through the chunk boundary; unfused, or restarted
// from zero at a chunk, it is not.
func checkStridedFused(t *testing.T) {
	const m = tileKC + 5
	for _, p := range []int{0, 1, tileKC - 1, tileKC, m - 1} {
		for k := 1; k <= 5; k++ {
			for n := 1; n <= 2*tileNR+1; n++ {
				a, b, c := NewDense(m, k), NewDense(m, n), NewDense(k, n)
				copy(a.Row(p), filled(k, fa))
				copy(b.Row(p), filled(n, fb))
				c.Fill(-1)
				ParMulAtBAddTo(c, a, b, nil)
				wantBits(t, fmt.Sprintf("strided Aᵀ·B %dx%d, fa·fb at step %d", k, n, p), c.Data, filled(k*n, fusedAB))
			}
		}
	}
}

// checkAtxFused puts the terms (−1)·1 and fa·fb on entries p−1 and p
// of a 9-entry column (zeros elsewhere), at every p — each place in
// the eight-entry zero test and its remainder — and widths 1–53: every
// accumulator of a strip, with and without the overlapping tail, and a
// second strip (below one vector, the generic loop at every level). Every element of f is fusedAB, 0 unfused. Σ x² stays
// unfused: after two squares of 2⁻²⁷ (2⁻⁵³ in all), fa² rounded first
// ties to 1 + 2⁻²⁶, where the fused sum would round up.
func checkAtxFused(t *testing.T) {
	const m = 9
	for k := 1; k <= 53; k++ {
		a := make([]float64, m*k)
		for p := 1; p < m; p++ {
			clear(a)
			copy(a[(p-1)*k:p*k], filled(k, 1))
			copy(a[p*k:(p+1)*k], filled(k, fb))
			x := make([]float64, m)
			x[p-1], x[p] = -1, fa
			f := make([]float64, k)
			AtxNZ(f, a, x)
			wantBits(t, fmt.Sprintf("AtxNZ k=%d, fa·fb at entry %d", k, p), f, filled(k, fusedAB))
			if p > 1 {
				x[p-2], x[p-1] = 0x1p-27, 0x1p-27
				if got, want := AtxNZ(f, a, x), 1+0x1p-26; got != want {
					t.Errorf("AtxNZ k=%d, fa at entry %d: Σx² = %x, want the unfused %x", k, p, math.Float64bits(got), math.Float64bits(want))
				}
			}
		}
	}
}

// probeRows returns ra identical rows a and rb identical rows b of
// length n, holding the terms (−1)·1 at reduction index p−1 and fa·fb
// at p (zeros elsewhere), so every dot product of a row of a with a
// row of b is fusedAB from a zero start, 0 unfused.
func probeRows(ra, rb, n, p int) (a, b *Dense) {
	a, b = NewDense(ra, n), NewDense(rb, n)
	for i := 0; i < ra; i++ {
		a.Set(i, p-1, -1)
		a.Set(i, p, fa)
	}
	for i := 0; i < rb; i++ {
		b.Set(i, p-1, 1)
		b.Set(i, p, fb)
	}
	return a, b
}

// checkTileFused runs full tiles of one and two panels and ragged ones
// with the fa·fb term at every step of the four-way unrolled reduction
// and of its tail.
func checkTileFused(t *testing.T) {
	const n = 9
	for p := 1; p < n; p++ {
		for _, sh := range []struct{ m, c int }{{tileMR, tileNR}, {tileMR - 1, tileNR - 3}, {tileMR, 2 * tileNR}, {tileMR - 1, 2*tileNR - 3}} {
			a, b := probeRows(sh.m, sh.c, n, p)
			c := NewDense(sh.m, sh.c)
			ParMulABtTo(c, a, b, nil)
			wantBits(t, fmt.Sprintf("%dx%d tile, fa·fb at step %d", sh.m, sh.c, p), c.Data, filled(sh.m*sh.c, fusedAB))
		}
	}
}

// checkGramFused puts fa in one sample row at a time of a 5×3 A on a
// G of −1: every entry, the diagonal included, is fma(fa, fa, −1).
func checkGramFused(t *testing.T) {
	for p := range 5 {
		a := NewDense(5, 3)
		for j := 0; j < 3; j++ {
			a.Set(p, j, fa)
		}
		g := NewDense(3, 3)
		g.Fill(-1)
		ParGramAddTo(g, a, nil)
		wantBits(t, fmt.Sprintf("Gram, fa in sample %d", p), g.Data, filled(9, fusedAA))
	}
}

// checkSubstitutionFused solves with L = [1 0; −fa 1] (unit diagonal)
// and right-hand-side columns (fb, −1): forward substitution gives
// x1 = fma(fa, fb, −1), back substitution x0 = fma(fa, x1, fb) — both
// different unfused — down a vector (r = 1) and by Axpy (r ≥ narrowRHS).
func checkSubstitutionFused(t *testing.T) {
	l := &Dense{Rows: 2, Cols: 2, Data: []float64{1, 0, -fa, 1}}
	x0 := math.FMA(fa, fusedAB, fb) // fb − 2⁻⁵³; unfused, x1 = 0 leaves fb
	for _, r := range []int{1, narrowRHS, narrowRHS + 3} {
		b := NewDense(2, r)
		copy(b.Data[:r], filled(r, fb))
		copy(b.Data[r:], filled(r, -1))
		x := NewDense(2, r)
		CholSolveInto(x, l, []float64{1, 1}, b)
		wantBits(t, fmt.Sprintf("CholSolveInto r=%d, row 1", r), x.Data[r:], filled(r, fusedAB))
		wantBits(t, fmt.Sprintf("CholSolveInto r=%d, row 0", r), x.Data[:r], filled(r, x0))
	}
}

// checkRefsFused holds the reference loops to the same arithmetic.
func checkRefsFused(t *testing.T) {
	one := func(v float64) *Dense { return &Dense{Rows: 1, Cols: 1, Data: []float64{v}} }
	c := one(-1)
	RefMulAddTo(c, one(fa), one(fb))
	wantBits(t, "RefMulAddTo", c.Data, []float64{fusedAB})
	c = one(-1)
	RefMulAtBAddTo(c, one(fa), one(fb))
	wantBits(t, "RefMulAtBAddTo", c.Data, []float64{fusedAB})
	c = one(-1)
	RefGramAddTo(c, one(fa))
	wantBits(t, "RefGramAddTo", c.Data, []float64{fusedAA})
	a, b := probeRows(1, 1, 2, 1)
	c = NewDense(1, 1)
	RefMulABtTo(c, a, b)
	wantBits(t, "RefMulABtTo", c.Data, []float64{fusedAB})
	ab := FromRows([][]float64{a.Row(0), b.Row(0)})
	wantBits(t, "RefGramT off the diagonal", []float64{RefGramT(ab).At(0, 1)}, []float64{fusedAB})
}
