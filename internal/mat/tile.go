package mat

import (
	"math"

	"hpcnmf/internal/par"
)

// The tile kernel: the register-blocked microkernel behind every
// "skinny output, long reduction" product (A·Hᵀ, A·B on a gathered n×k
// panel, H·Hᵀ). An MR×NR block of C lives in registers across the
// whole reduction while MR rows of A and one packed panel of the
// factor stream past it, so C is written once and the long dimension
// is read at unit stride on both sides.
//
// Every output element has exactly one accumulator, started at zero
// and updated acc = fma(a, b, acc) — one rounding per term — in
// ascending reduction index: the operation sequence of RefMulABtTo,
// RefGramT and RefMulAddTo on a zeroed C, so both dispatch levels
// (VFMADD231PD and math.FMA) are bitwise equal to the references by
// construction. Vector lanes hold adjacent output columns, never
// partial sums.
const (
	tileMR = 4 // rows of C per tile
	tileNR = 8 // columns of C per tile (two 4-wide vectors)
)

// Packed is a factor laid out for the tile kernel: ⌈cols/NR⌉ panels,
// each n×NR row-major, panel p holding output columns [p·NR,(p+1)·NR)
// with the last panel zero-padded. Padded lanes are computed and
// dropped; they never reach C. Pack once, multiply against any number
// of row blocks (the out-of-core driver packs once per pass), then
// Release the buffer to the workspace it came from.
type Packed struct {
	buf  *Dense // (panels·n)×NR
	n    int    // reduction length
	cols int    // output columns
}

func newPacked(ws *Workspace, n, cols int) Packed {
	panels := (cols + tileNR - 1) / tileNR
	return Packed{buf: ws.Get(panels*n, tileNR), n: n, cols: cols}
}

// panel returns packed panel p (n×NR).
func (pk Packed) panel(p int) []float64 {
	return pk.buf.Data[p*pk.n*tileNR : (p+1)*pk.n*tileNR]
}

// Release returns the pack buffer to ws (nil drops it).
func (pk Packed) Release(ws *Workspace) { ws.Put(pk.buf) }

// PackRows packs H (k×n) for products against Hᵀ: output column j is
// row j of H, so A·pack = A·Hᵀ. The buffer comes from ws (nil
// allocates).
func PackRows(ws *Workspace, h *Dense) Packed {
	pk := newPacked(ws, h.Cols, h.Rows)
	for j0 := 0; j0 < pk.cols; j0 += tileNR {
		dst := pk.panel(j0 / tileNR)
		for j := 0; j < tileNR; j++ {
			if j0+j < pk.cols {
				for l, v := range h.Row(j0 + j) {
					dst[l*tileNR+j] = v
				}
			} else {
				for l := 0; l < pk.n; l++ {
					dst[l*tileNR+j] = 0
				}
			}
		}
	}
	return pk
}

// PackCols packs B (n×k) for the product A·B: output column j is
// column j of B — the layout the drivers' all-gather produces. The
// buffer comes from ws (nil allocates).
func PackCols(ws *Workspace, b *Dense) Packed {
	pk := newPacked(ws, b.Rows, b.Cols)
	for j0 := 0; j0 < pk.cols; j0 += tileNR {
		dst := pk.panel(j0 / tileNR)
		w := min(tileNR, pk.cols-j0)
		for l := 0; l < pk.n; l++ {
			lane := dst[l*tileNR : (l+1)*tileNR]
			copy(lane, b.Data[l*pk.cols+j0:l*pk.cols+j0+w])
			clear(lane[w:])
		}
	}
	return pk
}

// ParMulPackedTo computes C = A·P for a packed factor P, overwriting
// c (m×cols). Row blocks of MR rows are split across the pool, so only
// the last chunk can have a ragged edge and results do not depend on
// the pool width.
func ParMulPackedTo(c, a *Dense, pk Packed, p *par.Pool) {
	if a.Cols != pk.n || c.Rows != a.Rows || c.Cols != pk.cols {
		panic("mat: MulPackedTo dimension mismatch")
	}
	blocks := (a.Rows + tileMR - 1) / tileMR
	if p == nil {
		// Direct call: no closure, so the steady-state iteration
		// loops stay allocation-free at KernelThreads=1.
		tileBlocks(c, a, pk, 0, blocks, false)
		return
	}
	p.For(blocks, parGrain/tileMR, func(b0, b1 int) {
		tileBlocks(c, a, pk, b0, b1, false)
	})
}

// tileBlocks computes row blocks [b0,b1) of C = A·P. With upper set
// (the symmetric product, C square) tiles lying wholly below the
// diagonal are skipped; the caller mirrors the upper triangle.
func tileBlocks(c, a *Dense, pk Packed, b0, b1 int, upper bool) {
	n, ldc := pk.n, c.Cols
	if n == 0 {
		clear(c.Data[min(b0*tileMR, c.Rows)*ldc : min(b1*tileMR, c.Rows)*ldc])
		return
	}
	for i := b0 * tileMR; i < min(b1*tileMR, c.Rows); i += tileMR {
		rows := min(tileMR, c.Rows-i)
		// A ragged last block re-reads its last valid row in place
		// of the missing ones; those results stay in the scratch tile.
		var ar [tileMR][]float64
		for r := range ar {
			ar[r] = a.Row(i + min(r, rows-1))
		}
		j := 0
		if upper {
			j = i / tileNR * tileNR
		}
		for ; j < pk.cols; j += tileNR {
			w := min(tileNR, pk.cols-j)
			panel := pk.panel(j / tileNR)
			if rows == tileMR && w == tileNR {
				tile(c.Data[i*ldc+j:], ldc, ar[0], ar[1], ar[2], ar[3], panel)
				continue
			}
			var t [tileMR * tileNR]float64
			tile(t[:], tileNR, ar[0], ar[1], ar[2], ar[3], panel)
			for r := 0; r < rows; r++ {
				copy(c.Data[(i+r)*ldc+j:(i+r)*ldc+j+w], t[r*tileNR:])
			}
		}
	}
}

// tileGeneric is the portable tile: C[r][j] = Σ_l a_r[l]·b[l·NR+j]
// for the MR×NR tile at c (row stride ldc), one row of eight running
// sums at a time so they stay in registers. It is the "generic"
// dispatch level and the only one off amd64.
func tileGeneric(c []float64, ldc int, a0, a1, a2, a3, b []float64) {
	tileRow(c, a0, b)
	tileRow(c[ldc:], a1, b)
	tileRow(c[2*ldc:], a2, b)
	tileRow(c[3*ldc:], a3, b)
}

// tileRow computes one row of a tile.
func tileRow(c, a, b []float64) {
	var s0, s1, s2, s3, s4, s5, s6, s7 float64
	for l, v := range a {
		q := (*[tileNR]float64)(b[l*tileNR:])
		s0 = math.FMA(v, q[0], s0)
		s1 = math.FMA(v, q[1], s1)
		s2 = math.FMA(v, q[2], s2)
		s3 = math.FMA(v, q[3], s3)
		s4 = math.FMA(v, q[4], s4)
		s5 = math.FMA(v, q[5], s5)
		s6 = math.FMA(v, q[6], s6)
		s7 = math.FMA(v, q[7], s7)
	}
	c[0], c[1], c[2], c[3], c[4], c[5], c[6], c[7] = s0, s1, s2, s3, s4, s5, s6, s7
}
