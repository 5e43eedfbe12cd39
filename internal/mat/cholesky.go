package mat

import (
	"errors"
	"fmt"
	"math"
)

// ErrNotPositiveDefinite is returned by CholeskyInto when the input
// matrix is not numerically positive definite.
var ErrNotPositiveDefinite = errors.New("mat: matrix is not positive definite")

// CholeskyInto computes the lower-triangular factor L with G = L·Lᵀ of
// a symmetric positive definite G into the caller's l (k×k), and the
// reciprocals of L's diagonal into inv (length k) — the only form in
// which the substitutions use the diagonal, so they are divided out
// once here and never again. Only the lower triangle of G is read and
// only the lower triangle of l is written (consumers read nothing
// else), so a recycled arena buffer needs no zeroing. Cost: k³/3 flops.
// Unlike the kernel primitives the loop rounds each product before
// subtracting it: it mirrors no primitive, and the conversions keep a
// compiler that contracts x − a·b from fusing it on any architecture.
func CholeskyInto(l, g *Dense, inv []float64) error {
	if g.Rows != g.Cols {
		panic(fmt.Sprintf("mat: Cholesky of non-square %dx%d", g.Rows, g.Cols))
	}
	if l.Rows != g.Rows || l.Cols != g.Cols || len(inv) != g.Rows {
		panic(fmt.Sprintf("mat: Cholesky factor is %dx%d with %d reciprocals, want %dx%d and %d", l.Rows, l.Cols, len(inv), g.Rows, g.Cols, g.Rows))
	}
	k, ld, gd := g.Rows, l.Data, g.Data
	for j := 0; j < k; j++ {
		lj := ld[j*k : j*k+j+1]
		d := gd[j*k+j]
		for _, v := range lj[:j] {
			d -= float64(v * v)
		}
		if d <= 0 || math.IsNaN(d) {
			return ErrNotPositiveDefinite
		}
		dj := math.Sqrt(d)
		rj := 1 / dj
		lj[j], inv[j] = dj, rj
		for i := j + 1; i < k; i++ {
			li := ld[i*k : i*k+j+1]
			s := gd[i*k+j]
			for t, v := range lj[:j] {
				s -= float64(li[t] * v)
			}
			li[j] = s * rj
		}
	}
	return nil
}

// narrowRHS is the shape rule of the substitution: a right-hand side
// with fewer columns is solved a column at a time. Measured, not
// borrowed from narrowCols — the two loop forms cross between 4 and 6
// columns for factors of 3 to 20 rows (table in DESIGN, "A one-column
// group is a vector").
const narrowRHS = 5

// CholSolveInto solves G·X = B into the caller's x (shaped like b, and
// allowed to be b) given the factor l of G and the reciprocals inv of
// its diagonal, both from CholeskyInto: forward substitution (L·Y = B),
// then back (Lᵀ·X = Y), 2·k²·r flops for a k×r right-hand side. Every
// element x[i][j] has the products L[i][t]·x[t][j] subtracted from it
// in ascending t, each as one fused x + (−L[i][t])·x[t][j], and is then
// multiplied by inv[i]; a zero L[i][t] is skipped. The loop nest
// follows the shape (the rule of mulAtBRange): with fewer than
// narrowRHS columns each column is run down as a vector, its current
// element in a register, through math.FMA(−c, t, x); with more, a row
// is updated at a time by Axpy (the same fused operation per element),
// the vector axis along the columns. So a column's bits do not depend
// on how many others share its right-hand side.
func CholSolveInto(x, l *Dense, inv []float64, b *Dense) {
	k, r := l.Rows, x.Cols
	if x.Rows != b.Rows || r != b.Cols || x.Rows != k || len(inv) != k {
		panic(fmt.Sprintf("mat: CholSolve of a %dx%d right-hand side into %dx%d with a %dx%d factor and %d reciprocals", b.Rows, b.Cols, x.Rows, r, k, k, len(inv)))
	}
	x.CopyFrom(b)
	ld, xd := l.Data, x.Data
	if r < narrowRHS {
		for j := 0; j < r; j++ {
			for i := 0; i < k; i++ {
				v := xd[i*r+j]
				for t, c := range ld[i*k : i*k+i] {
					if c != 0 {
						v = math.FMA(-c, xd[t*r+j], v)
					}
				}
				xd[i*r+j] = v * inv[i]
			}
			for i := k - 1; i >= 0; i-- {
				v := xd[i*r+j]
				for t := i + 1; t < k; t++ {
					if c := ld[t*k+i]; c != 0 {
						v = math.FMA(-c, xd[t*r+j], v)
					}
				}
				xd[i*r+j] = v * inv[i]
			}
		}
		return
	}
	for i := 0; i < k; i++ {
		xi := xd[i*r : (i+1)*r]
		for t, c := range ld[i*k : i*k+i] {
			if c != 0 {
				Axpy(xi, xd[t*r:(t+1)*r], -c)
			}
		}
		for j := range xi {
			xi[j] *= inv[i]
		}
	}
	for i := k - 1; i >= 0; i-- {
		xi := xd[i*r : (i+1)*r]
		for t := i + 1; t < k; t++ {
			if c := ld[t*k+i]; c != 0 {
				Axpy(xi, xd[t*r:(t+1)*r], -c)
			}
		}
		for j := range xi {
			xi[j] *= inv[i]
		}
	}
}

// SolveSPD solves G·X = B for symmetric positive definite G. If G is
// numerically singular it retries with progressively larger diagonal
// regularization (G + εI), which is the standard safeguard for the
// rank-deficient Gram matrices that can arise mid-iteration in NMF
// when a factor column collapses to zero.
func SolveSPD(g, b *Dense) (*Dense, error) {
	x := NewDense(b.Rows, b.Cols)
	if err := SolveSPDInto(x, g, b, nil); err != nil {
		return nil, err
	}
	return x, nil
}

// SolveSPDInto is SolveSPD into a caller-supplied x (shaped like b,
// and allowed to be b), drawing the factor and the jittered copy from
// ws — the form the zero-alloc solver steady states use. A nil ws
// allocates fresh. Only the lower triangle of g is read.
func SolveSPDInto(x *Dense, g, b *Dense, ws *Workspace) error {
	// One buffer holds the factor and, under it, the k reciprocals of
	// its diagonal.
	buf := ws.Get(g.Rows+1, g.Cols)
	defer ws.Put(buf)
	l, inv := Dense{Rows: g.Rows, Cols: g.Cols, Data: buf.Data[:g.Rows*g.Cols]}, buf.Data[g.Rows*g.Cols:]
	if err := CholeskyInto(&l, g, inv); err == nil {
		CholSolveInto(x, &l, inv, b)
		return nil
	}
	// Scale the jitter to the matrix magnitude.
	maxDiag := 0.0
	for i := 0; i < g.Rows; i++ {
		if d := math.Abs(g.At(i, i)); d > maxDiag {
			maxDiag = d
		}
	}
	if maxDiag == 0 {
		maxDiag = 1
	}
	eps := 1e-12 * maxDiag
	gj := ws.Get(g.Rows, g.Cols)
	defer ws.Put(gj)
	for try := 0; try < 8; try++ {
		gj.CopyFrom(g)
		for i := 0; i < gj.Rows; i++ {
			gj.Data[i*gj.Cols+i] += eps
		}
		if err := CholeskyInto(&l, gj, inv); err == nil {
			CholSolveInto(x, &l, inv, b)
			return nil
		}
		eps *= 100
	}
	return ErrNotPositiveDefinite
}
