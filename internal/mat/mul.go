package mat

import (
	"fmt"
	"math"

	"hpcnmf/internal/par"
)

// This file holds the production multiply kernels. They come in two
// families, split by the shape of the output:
//
//   - Wide outputs, short reductions (W·H, G·X, WᵀW·H) and the
//     streamed-row products (Wᵀ·A, WᵀW) accumulate into C through the
//     shared axpy42 primitive: the reduction index is unrolled four
//     ways and output rows are paired, so each call folds four streamed
//     input rows into two output rows (packed SIMD on amd64, see
//     axpy_amd64.s). Their vectors run along the output row, which is
//     long exactly when the output is wide; Aᵀ·B with a B of only a few
//     columns (a projection's Wᵀ·c) swaps its operands so they run
//     along the rows of A instead (see mulAtBRange).
//   - Skinny outputs, long reductions (A·Hᵀ, A·B on a gathered n×k
//     panel, H·Hᵀ) go through the tile kernel of tile.go: the factor is
//     packed once into n×8 panels and a 4×8 block of C stays in
//     registers across the whole reduction. An axpy along a k-long
//     output row has nothing to vectorize over; the tile kernel
//     vectorizes over the packed factor instead.
//
// On the tall-skinny shapes the ANLS iteration produces (m×k with
// k ≤ 100) both are worth 3–6× over the naive triple loops, which are
// retained in naive.go as the reference implementation for the
// differential tests.
//
// Every kernel preserves the reference accumulation order: each output
// element receives its contributions in increasing reduction-index
// order, each one fused multiply-add rounded once (the four-way
// unrolled sums nest left to right; a tile accumulator takes one term
// per step), so blocked results are bitwise identical to the reference
// on finite inputs, and a run is reproducible regardless of
// KernelThreads — worker ranges partition output elements, never the
// reduction.
//
// Each in-place kernel is a Par* function taking a *par.Pool that
// splits the output range across workers; the pool may be nil, which
// runs the serial path inline (see internal/par). The unprefixed
// functions (Mul, MulAtB, MulABt, Gram, GramT) allocate their result
// and run with a nil pool.

// parGrain is the minimum number of output rows (weighted by cost)
// worth shipping to a pool worker; below 2·parGrain kernels run
// inline.
const parGrain = 8

// Mul returns C = A·B. Dimensions: (m×p)·(p×n) → m×n.
// Cost: 2·m·p·n flops.
func Mul(a, b *Dense) *Dense {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("mat: Mul dimension mismatch %dx%d · %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	c := NewDense(a.Rows, b.Cols)
	ParMulAddTo(c, a, b, nil)
	return c
}

// ParMulTo computes C = A·B with kernel rows split across the pool.
func ParMulTo(c, a, b *Dense, p *par.Pool) {
	if a.Cols != b.Rows || c.Rows != a.Rows || c.Cols != b.Cols {
		panic("mat: ParMulTo dimension mismatch")
	}
	c.Zero()
	ParMulAddTo(c, a, b, p)
}

// ParMulAddTo computes C += A·B, partitioning rows of C across the
// pool. Workers own disjoint row ranges of C, so the result is
// identical to the serial kernel.
func ParMulAddTo(c, a, b *Dense, p *par.Pool) {
	if a.Cols != b.Rows || c.Rows != a.Rows || c.Cols != b.Cols {
		panic("mat: ParMulAddTo dimension mismatch")
	}
	if p == nil {
		// Direct call: no closure is materialized, which keeps the
		// steady-state iteration loops allocation-free at
		// KernelThreads=1.
		mulAddRange(c, a, b, 0, a.Rows)
		return
	}
	p.For(a.Rows, parGrain, func(i0, i1 int) {
		mulAddRange(c, a, b, i0, i1)
	})
}

// mulAddRange computes rows [i0,i1) of C += A·B. Rows of C are paired
// and the reduction index l is unrolled four ways, so each axpy42 call
// folds four streamed rows of B into two output rows.
func mulAddRange(c, a, b *Dense, i0, i1 int) {
	n := b.Cols
	kk := a.Cols
	var vw [8]float64
	i := i0
	for ; i+2 <= i1; i += 2 {
		ar0 := a.Row(i)
		ar1 := a.Row(i + 1)
		c0 := c.Row(i)
		c1 := c.Row(i + 1)
		l := 0
		for ; l+4 <= kk; l += 4 {
			vw[0], vw[1], vw[2], vw[3] = ar0[l], ar0[l+1], ar0[l+2], ar0[l+3]
			vw[4], vw[5], vw[6], vw[7] = ar1[l], ar1[l+1], ar1[l+2], ar1[l+3]
			axpy42(c0, c1,
				b.Data[(l+0)*n:(l+1)*n], b.Data[(l+1)*n:(l+2)*n],
				b.Data[(l+2)*n:(l+3)*n], b.Data[(l+3)*n:(l+4)*n], &vw)
		}
		for ; l < kk; l++ {
			brow := b.Data[l*n : (l+1)*n]
			Axpy(c0, brow, ar0[l])
			Axpy(c1, brow, ar1[l])
		}
	}
	for ; i < i1; i++ {
		arow := a.Row(i)
		crow := c.Row(i)
		l := 0
		for ; l+4 <= kk; l += 4 {
			Axpy4(crow,
				b.Data[(l+0)*n:(l+1)*n], b.Data[(l+1)*n:(l+2)*n],
				b.Data[(l+2)*n:(l+3)*n], b.Data[(l+3)*n:(l+4)*n], (*[4]float64)(arow[l:l+4]))
		}
		for ; l < kk; l++ {
			Axpy(crow, b.Data[l*n:(l+1)*n], arow[l])
		}
	}
}

// MulAtB returns C = Aᵀ·B. Dimensions: (m×p)ᵀ·(m×n) → p×n.
// Cost: 2·m·p·n flops.
func MulAtB(a, b *Dense) *Dense {
	if a.Rows != b.Rows {
		panic(fmt.Sprintf("mat: MulAtB dimension mismatch %dx%d ᵀ· %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	c := NewDense(a.Cols, b.Cols)
	ParMulAtBAddTo(c, a, b, nil)
	return c
}

// ParMulAtBTo computes C = Aᵀ·B, overwriting c.
func ParMulAtBTo(c, a, b *Dense, p *par.Pool) {
	c.Zero()
	ParMulAtBAddTo(c, a, b, p)
}

// ParMulAtBAddTo computes C += Aᵀ·B, partitioning rows of C (i.e.
// columns of A) across the pool. Each worker streams all m matched
// rows of A and B but updates only its own rows of C, so no reduction
// buffer is needed and the accumulation order per element matches the
// serial kernel exactly.
func ParMulAtBAddTo(c, a, b *Dense, p *par.Pool) {
	if a.Rows != b.Rows || c.Rows != a.Cols || c.Cols != b.Cols {
		panic("mat: ParMulAtBAddTo dimension mismatch")
	}
	if p == nil {
		mulAtBRange(c, a, b, 0, a.Cols)
		return
	}
	p.For(a.Cols, 1, func(l0, l1 int) {
		mulAtBRange(c, a, b, l0, l1)
	})
}

// narrowCols is the shape rule of Aᵀ·B: a B with fewer columns is
// multiplied with the operands swapped (see mulAtBRange). narrowBlock
// is the widest run of C rows that path holds transposed at once. Both
// are measured constants, not options (DESIGN.md decision 8 has the
// table that placed them).
const (
	narrowCols  = 16
	narrowBlock = 64
)

// mulAtBRange computes rows [l0,l1) of C += Aᵀ·B. mulAtBWindow's
// vectors run along the rows of B, which is right when B is wide. A B
// of fewer than narrowCols columns (a projection's Wᵀ·c is the
// one-column case) leaves it nothing to vectorize over, so the vector
// axis follows the shape: Cᵀ += Bᵀ·A is the same loop nest with the
// operands swapped and rows of A as the vectors, run on a transposed
// copy of a narrowBlock of C's rows. Either way every element takes
// its products in ascending i, summed left to right in groups of four,
// and v·p = p·v bit for bit, so both orders equal RefMulAtBAddTo. The
// transposed block lives on the stack; A is streamed once per block.
func mulAtBRange(c, a, b *Dense, l0, l1 int) {
	n := b.Cols
	if n >= narrowCols {
		mulAtBWindow(c.Data, a, l0, l1, b, 0, n)
		return
	}
	var acc [(narrowCols - 1) * narrowBlock]float64
	for lb := l0; lb < l1; lb += narrowBlock {
		w := min(narrowBlock, l1-lb)
		ct := acc[:n*w]
		for l := 0; l < w; l++ {
			for j := 0; j < n; j++ {
				ct[j*w+l] = c.Data[(lb+l)*n+j]
			}
		}
		mulAtBWindow(ct, b, 0, n, a, lb, lb+w)
		for l := 0; l < w; l++ {
			for j := 0; j < n; j++ {
				c.Data[(lb+l)*n+j] = ct[j*w+l]
			}
		}
	}
}

// mulAtBWindow computes C += Aᵀ·B for output rows [l0,l1) and columns
// [j0,j1) of B; row l of the output is c[l·w:(l+1)·w] with w = j1−j0.
// The sample index i (the reduction) is unrolled four ways and output
// rows are paired, so each axpy42 call folds four (A,B) row pairs into
// two rows of C — four streamed loads amortized over sixteen flops.
func mulAtBWindow(c []float64, a *Dense, l0, l1 int, b *Dense, j0, j1 int) {
	m := a.Rows
	w := j1 - j0
	var vw [8]float64
	i := 0
	for ; i+4 <= m; i += 4 {
		a0 := a.Row(i)
		a1 := a.Row(i + 1)
		a2 := a.Row(i + 2)
		a3 := a.Row(i + 3)
		b0 := b.Row(i)[j0:j1]
		b1 := b.Row(i + 1)[j0:j1]
		b2 := b.Row(i + 2)[j0:j1]
		b3 := b.Row(i + 3)[j0:j1]
		l := l0
		for ; l+2 <= l1; l += 2 {
			vw[0], vw[1], vw[2], vw[3] = a0[l], a1[l], a2[l], a3[l]
			vw[4], vw[5], vw[6], vw[7] = a0[l+1], a1[l+1], a2[l+1], a3[l+1]
			axpy42(c[l*w:(l+1)*w], c[(l+1)*w:(l+2)*w], b0, b1, b2, b3, &vw)
		}
		if l < l1 {
			vw[0], vw[1], vw[2], vw[3] = a0[l], a1[l], a2[l], a3[l]
			Axpy4(c[l*w:(l+1)*w], b0, b1, b2, b3, (*[4]float64)(vw[:4]))
		}
	}
	for ; i < m; i++ {
		arow := a.Row(i)
		brow := b.Row(i)[j0:j1]
		for l := l0; l < l1; l++ {
			Axpy(c[l*w:(l+1)*w], brow, arow[l])
		}
	}
}

// MulABt returns C = A·Bᵀ. Dimensions: (m×k)·(n×k)ᵀ → m×n.
// Cost: 2·m·n·k flops.
func MulABt(a, b *Dense) *Dense {
	if a.Cols != b.Cols {
		panic(fmt.Sprintf("mat: MulABt dimension mismatch %dx%d · %dx%dᵀ", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	c := NewDense(a.Rows, b.Rows)
	ParMulABtTo(c, a, b, nil)
	return c
}

// ParMulABtTo is ParMulABtToWS with a freshly allocated pack buffer.
func ParMulABtTo(c, a, b *Dense, p *par.Pool) {
	ParMulABtToWS(c, a, b, p, nil)
}

// ParMulABtToWS computes C = A·Bᵀ through the tile kernel: B is packed
// into a buffer drawn from ws, then row blocks of C are split across
// the pool.
func ParMulABtToWS(c, a, b *Dense, p *par.Pool, ws *Workspace) {
	if a.Cols != b.Cols || c.Rows != a.Rows || c.Cols != b.Rows {
		panic("mat: ParMulABtTo dimension mismatch")
	}
	pk := PackRows(ws, b)
	ParMulPackedTo(c, a, pk, p)
	pk.Release(ws)
}

// Gram returns G = Aᵀ·A (k×k for A of shape m×k), exploiting symmetry.
// Cost: m·k·(k+1) flops (half of a full multiply).
func Gram(a *Dense) *Dense {
	g := NewDense(a.Cols, a.Cols)
	ParGramAddTo(g, a, nil)
	return g
}

// ParGramTo computes G = Aᵀ·A, overwriting g.
func ParGramTo(g, a *Dense, p *par.Pool) {
	g.Zero()
	ParGramAddTo(g, a, p)
}

// gramInlineFlops is the work below which a Gram product runs on the
// caller whatever the pool: under it, waking a worker costs more than
// the half of the product it would take. A measured constant, not an
// option (DESIGN.md decision 8 has the table that placed it); only who
// runs a range changes, never a bit of G.
const gramInlineFlops = 4 << 20

// ParGramAddTo computes G += Aᵀ·A, filling both triangles. Workers own
// ranges of G rows balanced by triangle area (row l of the upper
// triangle holds k−l elements), each streaming all of A.
func ParGramAddTo(g, a *Dense, p *par.Pool) {
	k := a.Cols
	if g.Rows != k || g.Cols != k {
		panic("mat: ParGramAddTo dimension mismatch")
	}
	if p == nil || k < 2 || a.Rows < gramInlineFlops/(k*(k+1)) {
		gramRange(g, a, 0, k)
	} else {
		p.ForRanges(triangleBounds(k, p.Workers()), func(l0, l1 int) {
			gramRange(g, a, l0, l1)
		})
	}
	mirrorUpper(g)
}

// gramRange computes upper-triangle rows [l0,l1) of G += Aᵀ·A with the
// sample index unrolled four ways and triangle rows paired: the
// diagonal entry of the even row is updated scalar, fused like the
// primitives, then one axpy42 call folds the four streamed A rows into
// both G rows from column l+1 rightwards.
func gramRange(g, a *Dense, l0, l1 int) {
	k := a.Cols
	m := a.Rows
	var vw [8]float64
	i := 0
	for ; i+4 <= m; i += 4 {
		t0 := a.Row(i)
		t1 := a.Row(i + 1)
		t2 := a.Row(i + 2)
		t3 := a.Row(i + 3)
		l := l0
		for ; l+2 <= l1; l += 2 {
			v0, v1, v2, v3 := t0[l], t1[l], t2[l], t3[l]
			g0 := g.Data[l*k : (l+1)*k]
			g1 := g.Data[(l+1)*k : (l+2)*k]
			g0[l] = math.FMA(v3, v3, math.FMA(v2, v2, math.FMA(v1, v1, math.FMA(v0, v0, g0[l]))))
			j := l + 1
			vw[0], vw[1], vw[2], vw[3] = v0, v1, v2, v3
			vw[4], vw[5], vw[6], vw[7] = t0[j], t1[j], t2[j], t3[j]
			axpy42(g0[j:], g1[j:], t0[j:], t1[j:], t2[j:], t3[j:], &vw)
		}
		if l < l1 {
			vw[0], vw[1], vw[2], vw[3] = t0[l], t1[l], t2[l], t3[l]
			Axpy4(g.Data[l*k+l:(l+1)*k], t0[l:], t1[l:], t2[l:], t3[l:], (*[4]float64)(vw[:4]))
		}
	}
	for ; i < m; i++ {
		row := a.Row(i)
		for l := l0; l < l1; l++ {
			Axpy(g.Data[l*k+l:(l+1)*k], row[l:], row[l])
		}
	}
}

// GramT returns G = A·Aᵀ (k×k for A of shape k×n). This is the Gram
// matrix of the *rows*, used for HHᵀ where H is k×n.
// Cost: n·k·(k+1) flops.
func GramT(a *Dense) *Dense {
	g := NewDense(a.Rows, a.Rows)
	ParGramTTo(g, a, nil)
	return g
}

// ParGramTTo is ParGramTToWS with a freshly allocated pack buffer.
func ParGramTTo(g, a *Dense, p *par.Pool) {
	ParGramTToWS(g, a, p, nil)
}

// ParGramTToWS computes G = A·Aᵀ into g through the tile kernel — the
// same dot shape as A·Bᵀ with B = A — drawing the pack buffer from ws.
// Only tiles touching the upper triangle are computed; row blocks are
// split across the pool balanced by triangle area.
func ParGramTToWS(g, a *Dense, p *par.Pool, ws *Workspace) {
	k := a.Rows
	if g.Rows != k || g.Cols != k {
		panic("mat: ParGramTTo dimension mismatch")
	}
	pk := PackRows(ws, a)
	blocks := (k + tileMR - 1) / tileMR
	if p == nil || blocks < 2 || a.Cols < gramInlineFlops/(k*(k+1)) {
		tileBlocks(g, a, pk, 0, blocks, true)
	} else {
		p.ForRanges(triangleBounds(blocks, p.Workers()), func(b0, b1 int) {
			tileBlocks(g, a, pk, b0, b1, true)
		})
	}
	pk.Release(ws)
	mirrorUpper(g)
}

// triangleBounds splits rows [0,k) of an upper-triangular update into
// up to w contiguous ranges of roughly equal area (row l carries
// weight k−l), so pool workers get balanced flop counts rather than
// balanced row counts. Returned as boundary list for par.ForRanges.
func triangleBounds(k, w int) []int {
	total := k * (k + 1) / 2
	bounds := make([]int, 1, w+1)
	acc, cut := 0, 0
	for l := 0; l < k && len(bounds) < w; l++ {
		acc += k - l
		if acc*w >= (cut+1)*total {
			bounds = append(bounds, l+1)
			cut++
		}
	}
	if bounds[len(bounds)-1] != k {
		bounds = append(bounds, k)
	}
	return bounds
}
