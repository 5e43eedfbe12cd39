package core

import (
	"fmt"
	"math"

	"hpcnmf/internal/mat"
	"hpcnmf/internal/rng"
)

// TruncatedSVD computes the top-k singular triplets of A: U (m×k),
// sigma (descending), V (n×k) with A ≈ U·diag(sigma)·Vᵀ. It uses
// subspace iteration on AᵀA (touching A only through the two data
// products of the iteration, so sparse inputs stay sparse)
// followed by a Rayleigh–Ritz projection with a dense Jacobi
// eigensolver on the small k×k system.
//
// iters controls subspace-iteration sweeps; 0 means a default that is
// ample when the spectrum decays (the NMF-initialization use case).
func TruncatedSVD(a Matrix, k, iters int, seed uint64) (u *mat.Dense, sigma []float64, v *mat.Dense, err error) {
	m, n := a.Dims()
	if k < 1 || k > m || k > n {
		return nil, nil, nil, fmt.Errorf("core: TruncatedSVD rank %d out of range for %dx%d", k, m, n)
	}
	if iters <= 0 {
		iters = 30
	}
	// Random start, orthonormalized.
	v = mat.NewDense(n, k)
	s := rng.New(seed ^ 0xc2b2ae3d27d4eb4f)
	for i := range v.Data {
		v.Data[i] = s.Normal()
	}
	mat.Orthonormalize(v)

	av := mat.NewDense(m, k)
	vta := mat.NewDense(k, n)
	ws := mat.NewWorkspace()
	for it := 0; it < iters; it++ {
		// V ← orth(Aᵀ(A·V)).
		mulBtInto(av, a, v, ws, nil)    // m×k
		mulAtBInto(vta, a, av, ws, nil) // k×n
		vta.TTo(v)
		mat.Orthonormalize(v)
	}
	// Rayleigh–Ritz: T = Vᵀ(AᵀA)V, eigendecompose, rotate.
	mulBtInto(av, a, v, ws, nil)
	t := mat.Gram(av) // k×k = Vᵀ Aᵀ A V
	vals, e, err := mat.SymEigen(t)
	if err != nil {
		return nil, nil, nil, err
	}
	v = mat.Mul(v, e)
	av = mat.Mul(av, e)
	sigma = make([]float64, k)
	u = mat.NewDense(m, k)
	for j := 0; j < k; j++ {
		if vals[j] < 0 {
			vals[j] = 0
		}
		sigma[j] = math.Sqrt(vals[j])
		if sigma[j] > 1e-300 {
			inv := 1 / sigma[j]
			for i := 0; i < m; i++ {
				u.Set(i, j, av.At(i, j)*inv)
			}
		}
	}
	return u, sigma, v, nil
}

// NNDSVD computes the non-negative double SVD initialization of
// Boutsidis & Gallopoulos (2008), the standard structured NMF
// initialization: the leading singular triplet seeds the first
// component directly; each further triplet contributes whichever of
// its positive or negative part pair carries more mass. The result
// (W, H) can be passed via Options.InitW/InitH to any of the
// algorithms (all of them slice explicit initial factors
// deterministically, so parallel runs still match sequential ones).
//
// When fillMean is true, exact zeros are replaced by the mean entry
// of A divided by k (the "NNDSVDa" variant), which solvers like MU —
// unable to reactivate zeros — need.
func NNDSVD(a Matrix, k int, fillMean bool, seed uint64) (w, h *mat.Dense, err error) {
	m, n := a.Dims()
	u, sigma, v, err := TruncatedSVD(a, k, 0, seed)
	if err != nil {
		return nil, nil, err
	}
	// W and Hᵀ are built the same way, column c of each from column c
	// of U and V respectively.
	w = mat.NewDense(m, k)
	ht := mat.NewDense(n, k)
	sides := []struct{ sv, out *mat.Dense }{{u, w}, {v, ht}}

	// Leading component: |u0|, |v0| (Perron–Frobenius makes the true
	// leading pair of a non-negative matrix non-negative up to sign).
	s0 := math.Sqrt(sigma[0])
	for _, s := range sides {
		for i := 0; i < s.sv.Rows; i++ {
			s.out.Set(i, 0, s0*math.Abs(s.sv.At(i, 0)))
		}
	}

	for c := 1; c < k; c++ {
		// Split the c-th pair into positive and negative parts and keep
		// the pair carrying more mass; sign flips the negative pair
		// positive.
		nxp, nxn := partNorms(u, c)
		nyp, nyn := partNorms(v, c)
		mp, mn := nxp*nyp, nxn*nyn
		sign, scale, norms := 1.0, mp, [2]float64{nxp, nyp}
		if mp < mn {
			sign, scale, norms = -1, mn, [2]float64{nxn, nyn}
		}
		if scale == 0 || norms[0] == 0 || norms[1] == 0 {
			continue // degenerate component stays zero (or gets filled below)
		}
		f := math.Sqrt(sigma[c] * scale)
		for si, s := range sides {
			for i := 0; i < s.sv.Rows; i++ {
				if x := sign * s.sv.At(i, c); x > 0 {
					s.out.Set(i, c, f*x/norms[si])
				}
			}
		}
	}
	h = ht.T()
	if fillMean {
		mean := meanEntry(a)
		fill := mean / float64(k)
		if fill <= 0 {
			fill = 1e-8
		}
		for i, x := range w.Data {
			if x == 0 {
				w.Data[i] = fill
			}
		}
		for i, x := range h.Data {
			if x == 0 {
				h.Data[i] = fill
			}
		}
	}
	return w, h, nil
}

// partNorms returns the norms of the positive and of the non-positive
// part of column c of f.
func partNorms(f *mat.Dense, c int) (pos, neg float64) {
	for i := 0; i < f.Rows; i++ {
		if x := f.At(i, c); x > 0 {
			pos += x * x
		} else {
			neg += x * x
		}
	}
	return math.Sqrt(pos), math.Sqrt(neg)
}

// meanEntry returns the mean of all entries (zeros included for
// sparse storage), computed without densifying.
func meanEntry(a Matrix) float64 {
	m, n := a.Dims()
	if m == 0 || n == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range storedValues(a) {
		sum += x
	}
	return sum / float64(m*n)
}
