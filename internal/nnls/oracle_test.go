package nnls

import (
	"errors"
	"math"
)

// The test oracle (DESIGN decision 26): Lawson–Hanson's active-set
// NNLS and a straight-line ANLS built on it. Both work on plain
// row-major slices with loops and a Cholesky of their own and call
// nothing in internal/mat or internal/par, so a fault in a kernel that
// BPP and the drivers share — the factorization, a substitution, a
// product — cannot hide by making both sides of a comparison wrong the
// same way. Slow and allocating by design: one variable moves per
// outer step, and every solve factors afresh. The names are exported
// for the package's external tests (oracle_fit_test.go); a _test.go
// file is no part of the built package.

// errOracleSingular is a pivot of the oracle's Cholesky that is not
// positive.
var errOracleSingular = errors.New("oracle: free-set Gram is not positive definite")

// OracleNNLS returns the x ≥ 0 minimizing ½xᵀGx − fᵀx, G the k×k
// row-major g and k = len(f), by Lawson–Hanson in normal-equations
// form. From x = 0 it frees the pinned variable with the largest dual
// w = f − G·x, solves the free system, and while that solution z
// leaves the orthant it steps from x toward z as far as feasibility
// allows and pins the variable that reached zero. It stops when no
// dual exceeds a tolerance scaled to the data, or when the variable it
// just freed is sent straight back to zero (or cannot be factored):
// its dual was rounding noise, and freeing it again would cycle.
func OracleNNLS(g, f []float64) ([]float64, error) {
	k := len(f)
	tol := 1e-10 * (1 + max(oracleMaxAbs(g), oracleMaxAbs(f)))
	x := make([]float64, k)
	free := make([]bool, k)
	for outer := 0; outer < 10*k+100; outer++ {
		best, bestW := -1, tol
		for i := 0; i < k; i++ {
			if free[i] {
				continue
			}
			w := f[i]
			for j := 0; j < k; j++ {
				w -= g[i*k+j] * x[j]
			}
			if w > bestW {
				best, bestW = i, w
			}
		}
		if best < 0 {
			return x, nil
		}
		free[best] = true
		for first := true; ; first = false {
			z, err := oracleSolveFree(g, f, free)
			if first && (err != nil || z[best] <= tol) {
				free[best] = false
				return x, nil
			}
			if err != nil {
				return x, err
			}
			alpha, hit := 1.0, -1
			for i := 0; i < k; i++ {
				if free[i] && z[i] <= tol && x[i] > z[i] {
					if a := x[i] / (x[i] - z[i]); a < alpha {
						alpha, hit = a, i
					}
				}
			}
			if hit < 0 {
				// No step is cut short: z is the new x, with any free
				// entry at or below the tolerance pinned to zero.
				feasible := true
				for i := range z {
					if free[i] && z[i] <= tol {
						free[i], z[i], feasible = false, 0, false
					}
				}
				copy(x, z)
				if feasible {
					break
				}
				continue
			}
			for i := range x {
				if free[i] {
					x[i] += alpha * (z[i] - x[i])
				}
			}
			x[hit], free[hit] = 0, false
		}
	}
	return x, errors.New("oracle: Lawson–Hanson did not converge")
}

// oracleSolveFree solves G[P,P]·z_P = f_P over the free set P, with z
// zero elsewhere.
func oracleSolveFree(g, f []float64, free []bool) ([]float64, error) {
	k := len(f)
	var p []int
	for i, isFree := range free {
		if isFree {
			p = append(p, i)
		}
	}
	n := len(p)
	a, b := make([]float64, n*n), make([]float64, n)
	for r, i := range p {
		for c, j := range p {
			a[r*n+c] = g[i*k+j]
		}
		b[r] = f[i]
	}
	y, err := oracleCholeskySolve(a, b)
	if err != nil {
		return nil, err
	}
	z := make([]float64, k)
	for r, i := range p {
		z[i] = y[r]
	}
	return z, nil
}

// oracleCholeskySolve solves A·y = b for the symmetric positive
// definite n×n row-major a, n = len(b): a = L·Lᵀ by the textbook
// column-by-column factorization, then L·u = b and Lᵀ·y = u.
func oracleCholeskySolve(a, b []float64) ([]float64, error) {
	n := len(b)
	l := make([]float64, n*n)
	for j := 0; j < n; j++ {
		d := a[j*n+j]
		for t := 0; t < j; t++ {
			d -= l[j*n+t] * l[j*n+t]
		}
		if !(d > 0) {
			return nil, errOracleSingular
		}
		l[j*n+j] = math.Sqrt(d)
		for i := j + 1; i < n; i++ {
			s := a[i*n+j]
			for t := 0; t < j; t++ {
				s -= l[i*n+t] * l[j*n+t]
			}
			l[i*n+j] = s / l[j*n+j]
		}
	}
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		s := b[i]
		for t := 0; t < i; t++ {
			s -= l[i*n+t] * y[t]
		}
		y[i] = s / l[i*n+i]
	}
	for i := n - 1; i >= 0; i-- {
		s := y[i]
		for t := i + 1; t < n; t++ {
			s -= l[t*n+i] * y[t]
		}
		y[i] = s / l[i*n+i]
	}
	return y, nil
}

// OracleANLS runs iters iterations of the ANLS framework (Algorithm 1)
// on the m×n row-major a from the m×k w and k×n h, both row-major and
// updated in place. An iteration solves each row of W against H·Hᵀ and
// (A·Hᵀ)'s row, then each column of H against WᵀW and (WᵀA)'s column,
// every subproblem by OracleNNLS, and records ‖A − WH‖_F / ‖A‖_F summed
// from the residual's entries. It returns that history.
func OracleANLS(a []float64, m, n, k int, w, h []float64, iters int) ([]float64, error) {
	normA := 0.0
	for _, v := range a {
		normA += v * v
	}
	hist := make([]float64, 0, iters)
	g, f := make([]float64, k*k), make([]float64, k)
	for it := 0; it < iters; it++ {
		for p := 0; p < k; p++ { // H·Hᵀ
			for q := 0; q < k; q++ {
				s := 0.0
				for c := 0; c < n; c++ {
					s += h[p*n+c] * h[q*n+c]
				}
				g[p*k+q] = s
			}
		}
		for i := 0; i < m; i++ {
			for p := 0; p < k; p++ {
				s := 0.0
				for c := 0; c < n; c++ {
					s += a[i*n+c] * h[p*n+c]
				}
				f[p] = s
			}
			x, err := OracleNNLS(g, f)
			if err != nil {
				return hist, err
			}
			copy(w[i*k:(i+1)*k], x)
		}
		for p := 0; p < k; p++ { // WᵀW
			for q := 0; q < k; q++ {
				s := 0.0
				for i := 0; i < m; i++ {
					s += w[i*k+p] * w[i*k+q]
				}
				g[p*k+q] = s
			}
		}
		for c := 0; c < n; c++ {
			for p := 0; p < k; p++ {
				s := 0.0
				for i := 0; i < m; i++ {
					s += w[i*k+p] * a[i*n+c]
				}
				f[p] = s
			}
			x, err := OracleNNLS(g, f)
			if err != nil {
				return hist, err
			}
			for p, v := range x {
				h[p*n+c] = v
			}
		}
		res := 0.0
		for i := 0; i < m; i++ {
			for c := 0; c < n; c++ {
				r := a[i*n+c]
				for p := 0; p < k; p++ {
					r -= w[i*k+p] * h[p*n+c]
				}
				res += r * r
			}
		}
		hist = append(hist, math.Sqrt(res/normA))
	}
	return hist, nil
}

// oracleMaxAbs is the largest magnitude in v.
func oracleMaxAbs(v []float64) float64 {
	m := 0.0
	for _, x := range v {
		m = max(m, math.Abs(x))
	}
	return m
}
