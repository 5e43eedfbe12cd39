package mat

import "hpcnmf/internal/par"

// This file holds the production multiply kernels. They come in two
// families of register tile, split by where the factor comes from:
//
//   - The streamed products (Wᵀ·A, the Grams WᵀW and H·Hᵀ, the latter
//     read from Hᵀ, and A·B: W·H, G·X, WᵀW·H) run on the strided
//     tile: both operands are read in place through their row
//     strides, and a 4-row block of C stays in registers across a
//     chunk of tileKC reduction steps, then goes back to C, which
//     carries each running sum to the next chunk. Its vectors run
//     along the output row, 8 columns wide (16 at avx512); a ragged
//     edge is masked, so a B of one column (a projection's Wᵀ·c) runs
//     the same tile as a wide one.
//   - The skinny outputs with a long reduction (A·Hᵀ, A·B on a
//     gathered n×k panel) go through the packed tile of tile.go:
//     the factor is packed once into n×8 panels and a 4×8 block of C
//     (4×16, two panels, at avx512) stays in registers across the
//     whole reduction.
//
// On the tall-skinny shapes the ANLS iteration produces (m×k with
// k ≤ 100) both are worth several times the naive triple loops, which
// are retained in naive_test.go as the reference implementation for
// the differential tests.
//
// Every kernel preserves the reference accumulation order: each output
// element receives its contributions in increasing reduction-index
// order, each one fused multiply-add rounded once, starting from C's
// value (a packed tile starts from zero and overwrites). A chunk
// boundary stores a running sum and reloads it, which is exact. So
// blocked results are bitwise identical to the reference on finite
// inputs, and a run is reproducible regardless of KernelThreads —
// worker ranges partition tiles of C, never the reduction.
//
// Each in-place kernel is a Par* function taking a *par.Pool that
// splits the output across workers; the pool may be nil, which runs
// the serial path inline (see internal/par).

// parGrain is the minimum number of output rows (weighted by cost)
// worth shipping to a pool worker; below 2·parGrain kernels run
// inline.
const parGrain = 8

// tileKC is the strided tile's reduction chunk: the steps a block of C
// stays in registers before it is stored, and so the rows of both
// operands a pass over the tiles keeps in cache. A measured constant,
// not an option (DESIGN.md decision 8 has the table that placed it);
// it changes when a running sum goes through memory, never a bit.
const tileKC = 64

// strided is a product C += Σ_s a(s, i)·b(s, j) whose operands are read
// in place: a(s, i) = a[s·as + i·ai] and b(s, j) = b[s·ldb + j], for
// steps s in [0, steps). Wᵀ·A reads W down its columns (as = k,
// ai = 1); A·B reads A along its rows (as = 1, ai = A's row stride).
type strided struct {
	c      *Dense
	a      []float64
	as, ai int
	b      []float64
	ldb    int
	steps  int
}

// stripWidth is the columns of C one strided tile covers at level lvl:
// a register tile's width, or at the generic level, which has no
// registers to fill, a strip long enough that its row updates run
// like axpys along C.
func stripWidth(lvl int32) int {
	switch lvl {
	case isaAVX512:
		return 2 * tileNR
	case isaGeneric:
		return 256
	}
	return tileNR
}

// par runs the product with tiles of C split across the pool: row
// blocks balanced by triangle area when only the upper triangle is
// computed (the caller mirrors it), otherwise whichever of row blocks
// and column strips is the more numerous.
func (t strided) par(p *par.Pool, upper bool) {
	lvl := isaLevel.Load()
	rows, cols, nr := t.c.Rows, t.c.Cols, stripWidth(lvl)
	blocks, strips := (rows+tileMR-1)/tileMR, (cols+nr-1)/nr
	switch {
	case p == nil:
		// Direct call: no closure is materialized, which keeps the
		// steady-state iteration loops allocation-free at
		// KernelThreads=1.
		t.run(lvl, 0, rows, 0, cols, upper)
	case upper:
		p.ForRanges(triangleBounds(blocks, p.Workers()), func(b0, b1 int) {
			t.run(lvl, b0*tileMR, min(b1*tileMR, rows), 0, cols, true)
		})
	case blocks >= strips:
		p.For(blocks, parGrain/tileMR, func(b0, b1 int) {
			t.run(lvl, b0*tileMR, min(b1*tileMR, rows), 0, cols, false)
		})
	default:
		p.For(strips, 1, func(s0, s1 int) {
			t.run(lvl, 0, rows, s0*nr, min(s1*nr, cols), false)
		})
	}
}

// run computes the tiles of C in rows [i0,i1) and columns [j0,j1), i0
// a multiple of tileMR and j0 of the strip width, chunk by chunk of
// the reduction: within a chunk a strip of B stays in cache across
// the row blocks. With upper set, a tile starts at its first row's
// diagonal entry, so no column wholly below the diagonal is computed.
func (t strided) run(lvl int32, i0, i1, j0, j1 int, upper bool) {
	nr, ldc := stripWidth(lvl), t.c.Cols
	for s0 := 0; s0 < t.steps; s0 += tileKC {
		n := min(tileKC, t.steps-s0)
		a, b := t.a[s0*t.as:], t.b[s0*t.ldb:]
		for j := j0; j < j1; j += nr {
			for i := i0; i < i1; i += tileMR {
				jb := j
				if upper {
					jb = max(j, i) // columns left of row i lie below the diagonal
				}
				if w := min(j+nr, j1) - jb; w > 0 {
					accTile(lvl, t.c.Data[i*ldc+jb:], ldc, min(tileMR, i1-i), a[i*t.ai:], t.as, t.ai, b[jb:], t.ldb, n, w)
				}
			}
		}
	}
}

// ParMulTo computes C = A·B with tiles of C split across the pool.
func ParMulTo(c, a, b *Dense, p *par.Pool) {
	if a.Cols != b.Rows || c.Rows != a.Rows || c.Cols != b.Cols {
		panic("mat: ParMulTo dimension mismatch")
	}
	c.Zero()
	ParMulAddTo(c, a, b, p)
}

// ParMulAddTo computes C += A·B on the strided tile, A read along its
// rows and B down its rows.
func ParMulAddTo(c, a, b *Dense, p *par.Pool) {
	if a.Cols != b.Rows || c.Rows != a.Rows || c.Cols != b.Cols {
		panic("mat: ParMulAddTo dimension mismatch")
	}
	strided{c: c, a: a.Data, as: 1, ai: a.Cols, b: b.Data, ldb: b.Cols, steps: a.Cols}.par(p, false)
}

// ParMulAtBTo computes C = Aᵀ·B, overwriting c.
func ParMulAtBTo(c, a, b *Dense, p *par.Pool) {
	c.Zero()
	ParMulAtBAddTo(c, a, b, p)
}

// ParMulAtBAddTo computes C += Aᵀ·B on the strided tile, streaming the
// matched rows of A and B; a worker given strips of C reads only the
// columns of B under them.
func ParMulAtBAddTo(c, a, b *Dense, p *par.Pool) {
	if a.Rows != b.Rows || c.Rows != a.Cols || c.Cols != b.Cols {
		panic("mat: ParMulAtBAddTo dimension mismatch")
	}
	strided{c: c, a: a.Data, as: a.Cols, ai: 1, b: b.Data, ldb: b.Cols, steps: a.Rows}.par(p, false)
}

// ParMulABtTo computes C = A·Bᵀ through the packed tile: B is packed
// into a freshly allocated buffer, then row blocks of C are split
// across the pool.
func ParMulABtTo(c, a, b *Dense, p *par.Pool) {
	if a.Cols != b.Cols || c.Rows != a.Rows || c.Cols != b.Rows {
		panic("mat: ParMulABtTo dimension mismatch")
	}
	ParMulPackedTo(c, a, PackRows(nil, b), p)
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

// ParGramAddTo computes G += Aᵀ·A, filling both triangles: the
// strided tile with B = A computes the tiles touching the upper
// triangle, split across workers by triangle area, and the upper
// triangle is mirrored.
func ParGramAddTo(g, a *Dense, p *par.Pool) {
	k := a.Cols
	if g.Rows != k || g.Cols != k {
		panic("mat: ParGramAddTo dimension mismatch")
	}
	if k < 2 || a.Rows < gramInlineFlops/(k*(k+1)) {
		p = nil
	}
	strided{c: g, a: a.Data, as: k, ai: 1, b: a.Data, ldb: k, steps: a.Rows}.par(p, true)
	mirrorUpper(g)
}

// ParGramTTo computes G = A·Aᵀ, overwriting g: the Gram of Aᵀ on the
// strided tile.
func ParGramTTo(g, a *Dense, p *par.Pool) {
	ParGramTo(g, a.T(), p)
}

// mirrorUpper copies the upper triangle of a square matrix into the
// lower triangle.
func mirrorUpper(g *Dense) {
	k := g.Cols
	for l := 1; l < k; l++ {
		for j := 0; j < l; j++ {
			g.Data[l*k+j] = g.Data[j*k+l]
		}
	}
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
