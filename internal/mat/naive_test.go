package mat

import "math"

// Reference kernels: the straightforward triple loops the blocked
// kernels in mul.go are differentially tested against. They define
// the accumulation-order contract — contributions to every output
// element are added in increasing reduction-index order, left to
// right, each as one fused multiply-add (math.FMA, one rounding per
// term) — which the blocked row-unrolled kernels preserve exactly, so
// the differential tests can demand bitwise equality on finite inputs.
//
// Unlike the seed implementation these loops carry no `if v == 0`
// skip branches: dense inputs rarely contain exact zeros (sparse data
// goes through internal/sparse), the branch defeats pipelining on the
// hot path, and skipping breaks IEEE semantics for non-finite data
// (0·Inf must yield NaN, not 0).

// RefMulAddTo computes C += A·B with the naive i-l-j loop order.
func RefMulAddTo(c, a, b *Dense) {
	if a.Cols != b.Rows || c.Rows != a.Rows || c.Cols != b.Cols {
		panic("mat: RefMulAddTo dimension mismatch")
	}
	n := b.Cols
	for i := 0; i < a.Rows; i++ {
		arow := a.Row(i)
		crow := c.Row(i)
		for l, ail := range arow {
			brow := b.Data[l*n : (l+1)*n]
			for j, blj := range brow {
				crow[j] = math.FMA(ail, blj, crow[j])
			}
		}
	}
}

// RefMulAtBAddTo computes C += Aᵀ·B by streaming matched rows of A
// and B.
func RefMulAtBAddTo(c, a, b *Dense) {
	if a.Rows != b.Rows || c.Rows != a.Cols || c.Cols != b.Cols {
		panic("mat: RefMulAtBAddTo dimension mismatch")
	}
	n := b.Cols
	for i := 0; i < a.Rows; i++ {
		arow := a.Row(i)
		brow := b.Row(i)
		for l, ail := range arow {
			crow := c.Data[l*n : (l+1)*n]
			for j, bij := range brow {
				crow[j] = math.FMA(ail, bij, crow[j])
			}
		}
	}
}

// RefMulABtTo computes C = A·Bᵀ: each output entry is one dot product
// of a row of A with a row of B.
func RefMulABtTo(c, a, b *Dense) {
	if a.Cols != b.Cols || c.Rows != a.Rows || c.Cols != b.Rows {
		panic("mat: RefMulABtTo dimension mismatch")
	}
	for i := 0; i < a.Rows; i++ {
		arow := a.Row(i)
		crow := c.Row(i)
		for j := 0; j < b.Rows; j++ {
			brow := b.Row(j)
			s := 0.0
			for l, v := range arow {
				s = math.FMA(v, brow[l], s)
			}
			crow[j] = s
		}
	}
}

// RefGramAddTo computes G += Aᵀ·A, filling both triangles.
func RefGramAddTo(g *Dense, a *Dense) {
	k := a.Cols
	if g.Rows != k || g.Cols != k {
		panic("mat: RefGramAddTo dimension mismatch")
	}
	for i := 0; i < a.Rows; i++ {
		row := a.Row(i)
		for l, v := range row {
			grow := g.Data[l*k : (l+1)*k]
			for j := l; j < k; j++ {
				grow[j] = math.FMA(v, row[j], grow[j])
			}
		}
	}
	mirrorUpper(g)
}

// RefGramT computes G = A·Aᵀ (the Gram matrix of the rows).
func RefGramT(a *Dense) *Dense {
	k := a.Rows
	g := NewDense(k, k)
	for i := 0; i < k; i++ {
		ri := a.Row(i)
		grow := g.Row(i)
		for j := i; j < k; j++ {
			rj := a.Row(j)
			s := 0.0
			for l, v := range ri {
				s = math.FMA(v, rj[l], s)
			}
			grow[j] = s
		}
	}
	mirrorUpper(g)
	return g
}
