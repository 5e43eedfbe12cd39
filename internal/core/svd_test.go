package core

import (
	"math"
	"testing"

	"hpcnmf/internal/mat"
	"hpcnmf/internal/rng"
	"hpcnmf/internal/sparse"
)

func TestTruncatedSVDExactLowRank(t *testing.T) {
	// A = U*Σ*V*ᵀ of exact rank 3: the truncated SVD must recover it
	// to high accuracy.
	a := lowRankDense(30, 22, 3, 0, 101)
	u, sigma, v, err := TruncatedSVD(WrapDense(a), 3, 0, 5)
	if err != nil {
		t.Fatal(err)
	}
	// Reconstruct and compare.
	rec := mat.NewDense(30, 22)
	for c := 0; c < 3; c++ {
		for i := 0; i < 30; i++ {
			for j := 0; j < 22; j++ {
				rec.Set(i, j, rec.At(i, j)+sigma[c]*u.At(i, c)*v.At(j, c))
			}
		}
	}
	if d := rec.MaxDiff(a); d > 1e-8 {
		t.Fatalf("SVD reconstruction off by %g", d)
	}
	// Singular values descending and positive.
	for c := 1; c < 3; c++ {
		if sigma[c] > sigma[c-1] {
			t.Fatal("singular values not descending")
		}
	}
	// U and V have orthonormal columns.
	for _, f := range []*mat.Dense{u, v} {
		g := mat.Gram(f)
		for i := 0; i < 3; i++ {
			for j := 0; j < 3; j++ {
				want := 0.0
				if i == j {
					want = 1
				}
				if math.Abs(g.At(i, j)-want) > 1e-8 {
					t.Fatalf("factor not orthonormal: G[%d][%d]=%g", i, j, g.At(i, j))
				}
			}
		}
	}
}

func TestTruncatedSVDSparse(t *testing.T) {
	s := sparse.RandomER(40, 30, 0.3, rng.New(7))
	u, sigma, v, err := TruncatedSVD(WrapSparse(s), 4, 0, 5)
	if err != nil {
		t.Fatal(err)
	}
	// Leading singular value must match the dense computation's
	// Rayleigh quotient: σ₀² = ‖A·v₀‖².
	d := s.ToDense()
	av := mat.Mul(d, v.SubmatrixCols(0, 1))
	if got := av.FrobeniusNorm(); math.Abs(got-sigma[0]) > 1e-6*(1+sigma[0]) {
		t.Fatalf("σ₀ = %g but ‖A·v₀‖ = %g", sigma[0], got)
	}
	_ = u
}

func TestTruncatedSVDRejectsBadRank(t *testing.T) {
	a := WrapDense(mat.NewDense(5, 4))
	if _, _, _, err := TruncatedSVD(a, 0, 0, 1); err == nil {
		t.Fatal("rank 0 accepted")
	}
	if _, _, _, err := TruncatedSVD(a, 5, 0, 1); err == nil {
		t.Fatal("rank > min dim accepted")
	}
}

func TestSymEigenKnownMatrix(t *testing.T) {
	// [[2,1],[1,2]] has eigenvalues 3 (vec ~ (1,1)) and 1 (vec ~ (1,-1)).
	g := mat.FromRows([][]float64{{2, 1}, {1, 2}})
	vals, vecs, err := mat.SymEigen(g)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(vals[0]-3) > 1e-12 || math.Abs(vals[1]-1) > 1e-12 {
		t.Fatalf("eigenvalues %v", vals)
	}
	// G·v = λ·v for each pair.
	for c := 0; c < 2; c++ {
		vc := vecs.SubmatrixCols(c, c+1)
		gv := mat.Mul(g, vc)
		lv := vc.Clone()
		for i := range lv.Data {
			lv.Data[i] *= vals[c]
		}
		if gv.MaxDiff(lv) > 1e-12 {
			t.Fatalf("G·v != λ·v for pair %d", c)
		}
	}
}

func TestSymEigenRandomSPD(t *testing.T) {
	s := rng.New(11)
	c := mat.NewDense(20, 6)
	c.RandomUniform(s)
	g := mat.Gram(c)
	vals, vecs, err := mat.SymEigen(g)
	if err != nil {
		t.Fatal(err)
	}
	// Reconstruct: E·diag(λ)·Eᵀ = G.
	lam := mat.NewDense(6, 6)
	for i := 0; i < 6; i++ {
		if vals[i] < -1e-10 {
			t.Fatalf("negative eigenvalue %g for PSD matrix", vals[i])
		}
		lam.Set(i, i, vals[i])
	}
	rec := mat.Mul(mat.Mul(vecs, lam), vecs.T())
	if d := rec.MaxDiff(g); d > 1e-9*(1+g.FrobeniusNorm()) {
		t.Fatalf("eigendecomposition reconstruction off by %g", d)
	}
}

func TestOrthonormalizeRankDeficient(t *testing.T) {
	v := mat.FromRows([][]float64{{1, 2}, {2, 4}, {3, 6}}) // col2 = 2·col1
	kept := mat.Orthonormalize(v)
	if kept != 1 {
		t.Fatalf("kept %d columns of a rank-1 matrix", kept)
	}
}

func TestNNDSVDBeatsRandomInit(t *testing.T) {
	a := lowRankDense(50, 40, 5, 0.05, 103)
	w0, h0, err := NNDSVD(WrapDense(a), 5, false, 9)
	if err != nil {
		t.Fatal(err)
	}
	if w0.Min() < 0 || h0.Min() < 0 {
		t.Fatal("NNDSVD produced negative entries")
	}
	// Initial reconstruction error of NNDSVD must beat the random
	// element-addressed init (the whole point of structured init).
	errOf := func(w, h *mat.Dense) float64 { return directRelErr(a, w, h) }
	wr := initW(50, 5, 0, 9)
	hr := initH(5, 40, 0, 9)
	if errOf(w0, h0) >= errOf(wr, hr) {
		t.Fatalf("NNDSVD init error %g not below random init %g", errOf(w0, h0), errOf(wr, hr))
	}
	// A run seeded with it must proceed normally and land at a sane
	// fit. (Whether it beats a random start after a few exact ANLS
	// iterations is problem-dependent — both land in local minima —
	// so only the initial-error property above is asserted strictly.)
	opts := testOpts(5)
	opts.MaxIter = 3
	opts.InitW, opts.InitH = w0, h0
	seeded, err := RunSequential(WrapDense(a), opts)
	if err != nil {
		t.Fatal(err)
	}
	if last := seeded.RelErr[len(seeded.RelErr)-1]; last > errOf(w0, h0) {
		t.Fatalf("iterating from NNDSVD made the fit worse: %g -> %g", errOf(w0, h0), last)
	}
}

// TestNNDSVDComponentsBalanced: component c of NNDSVD is the kept
// part pair (x, y) of singular triplet c — positive parts, or negated
// negative ones, whichever carries more mass — scaled so that
// ‖W[:,c]‖ = ‖H[c,:]‖ and W[:,c]·H[c,:] = σ_c·x·yᵀ. Both factors'
// norms follow from that: ‖W[:,c]‖² = σ_c·‖x‖·‖y‖.
func TestNNDSVDComponentsBalanced(t *testing.T) {
	const k = 5
	a := lowRankDense(30, 24, k, 0.05, 109)
	w, h, err := NNDSVD(WrapDense(a), k, false, 9)
	if err != nil {
		t.Fatal(err)
	}
	u, sigma, v, err := TruncatedSVD(WrapDense(a), k, 0, 9)
	if err != nil {
		t.Fatal(err)
	}
	// kept returns the norm of the kept part of column c of f.
	kept := func(f *mat.Dense, c int, sign float64) float64 {
		s := 0.0
		for i := 0; i < f.Rows; i++ {
			if x := sign * f.At(i, c); x > 0 {
				s += x * x
			}
		}
		return math.Sqrt(s)
	}
	for c := 0; c < k; c++ {
		wn := w.SubmatrixCols(c, c+1).FrobeniusNorm()
		hn := h.SubmatrixRows(c, c+1).FrobeniusNorm()
		want := sigma[c] // the leading pair is |u₀|, |v₀|, both of unit norm
		if c > 0 {
			pos := kept(u, c, 1) * kept(v, c, 1)
			neg := kept(u, c, -1) * kept(v, c, -1)
			want = sigma[c] * max(pos, neg)
		}
		if math.Abs(wn-hn) > 1e-12*wn || math.Abs(wn*hn-want) > 1e-12*want {
			t.Errorf("component %d: ‖W[:,c]‖ = %g, ‖H[c,:]‖ = %g, want both √%g", c, wn, hn, want)
		}
	}
}

func TestNNDSVDFillMean(t *testing.T) {
	a := lowRankDense(20, 16, 3, 0.01, 107)
	w, h, err := NNDSVD(WrapDense(a), 3, true, 9)
	if err != nil {
		t.Fatal(err)
	}
	if w.Min() <= 0 || h.Min() <= 0 {
		t.Fatal("NNDSVDa left zeros")
	}
}
