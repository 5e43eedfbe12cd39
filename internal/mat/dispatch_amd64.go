//go:build amd64

package mat

// Dispatch of the kernel primitives to their assembly: the axpys
// (axpy_amd64.s), the packed and strided tiles (tile_amd64.s, and
// tile512_amd64.s at avx512) and the lone-column product
// (atx_amd64.s). They execute the identical per-element operation
// sequence as the generic loops — one fused multiply-add per term, the
// packed lanes holding adjacent output elements, never partial sums of
// one element — so their results are bitwise identical to them. Each
// level is guarded by the CPUID probe in cpu_amd64.go; below avx2, or
// on empty operands, the generic loops run.

//go:noescape
func axpy4AVX2(c, b0, b1, b2, b3 *float64, v *[4]float64, n int)

//go:noescape
func axpy1AVX2(c, b *float64, v float64, n int)

//go:noescape
func atxNZAVX2(f, a, x *float64, k, m int) float64

//go:noescape
func tile4x8AVX2(c *float64, ldc int, a0, a1, a2, a3, b *float64, n int)

//go:noescape
func tile4x16AVX512(c *float64, ldc int, a0, a1, a2, a3, b0, b1 *float64, n int)

//go:noescape
func accTile4x8AVX2(c0, c1, c2, c3, a0, a1, a2, a3 *float64, as int, b *float64, ldb, n, w int)

//go:noescape
func accTile4x16AVX512(c0, c1, c2, c3, a0, a1, a2, a3 *float64, as int, b *float64, ldb, n, w int)

// Axpy4 computes c[j] += v[0]·b0[j] + v[1]·b1[j] + v[2]·b2[j] + v[3]·b3[j],
// the sparse kernels' four-entry inner step, dispatched on the active
// ISA level. All slices must have length ≥ len(c).
func Axpy4(c, b0, b1, b2, b3 []float64, v *[4]float64) {
	if len(c) == 0 || isaLevel.Load() < isaAVX2 {
		axpy4Generic(c, b0, b1, b2, b3, v)
		return
	}
	axpy4AVX2(&c[0], &b0[0], &b1[0], &b2[0], &b3[0], v, len(c))
}

// Axpy computes c[j] += v·b[j], dispatched on the active ISA level.
// b must have length ≥ len(c).
func Axpy(c, b []float64, v float64) {
	if len(c) == 0 || isaLevel.Load() < isaAVX2 {
		axpyGeneric(c, b, v)
		return
	}
	axpy1AVX2(&c[0], &b[0], v, len(c))
}

// AtxNZ computes f = Aᵀx for a row-major A with len(f) columns and
// len(x) rows over the nonzero entries of x alone, and returns Σ x_i²
// over the same entries (see atxNZGeneric), dispatched on the active
// ISA level; f shorter than one vector (4) runs the generic loop. a
// must have length ≥ len(x)·len(f).
func AtxNZ(f, a, x []float64) float64 {
	if len(f) < 4 || len(x) == 0 || isaLevel.Load() < isaAVX2 {
		return atxNZGeneric(f, a, x)
	}
	_ = a[len(x)*len(f)-1] // the assembly trusts this extent
	return atxNZAVX2(&f[0], &a[0], &x[0], len(f), len(x))
}

// tile computes one MR×NR tile of C (row stride ldc) from four A rows
// of equal nonzero length and one packed panel (see tileGeneric for
// the definition), dispatched on the active ISA level.
func tile(c []float64, ldc int, a0, a1, a2, a3, b []float64) {
	if isaLevel.Load() < isaAVX2 {
		tileGeneric(c, ldc, a0, a1, a2, a3, b)
		return
	}
	// The assembly trusts these extents; check them here.
	n := len(a0)
	_, _, _, _, _ = c[3*ldc+tileNR-1], a1[n-1], a2[n-1], a3[n-1], b[n*tileNR-1]
	tile4x8AVX2(&c[0], ldc, &a0[0], &a1[0], &a2[0], &a3[0], &b[0], n)
}

// tile2 computes the MR×2NR tile of two adjacent packed panels, b0's
// columns left of b1's: one AVX-512 body, or two tiles below it.
func tile2(c []float64, ldc int, a0, a1, a2, a3, b0, b1 []float64) {
	if isaLevel.Load() < isaAVX512 {
		tile(c, ldc, a0, a1, a2, a3, b0)
		tile(c[tileNR:], ldc, a0, a1, a2, a3, b1)
		return
	}
	n := len(a0)
	_, _, _, _, _, _ = c[3*ldc+2*tileNR-1], a1[n-1], a2[n-1], a3[n-1], b0[n*tileNR-1], b1[n*tileNR-1]
	tile4x16AVX512(&c[0], ldc, &a0[0], &a1[0], &a2[0], &a3[0], &b0[0], &b1[0], n)
}

// accTile runs the strided tile (see accTileGeneric for the
// definition) at level lvl, for 1 ≤ rows ≤ MR, 1 ≤ w ≤ stripWidth(lvl)
// and n ≥ 1. The assembly masks the columns past w; a row past the
// last re-runs the last one, writing its bits to the same place.
func accTile(lvl int32, c []float64, ldc, rows int, a []float64, as, ar int, b []float64, ldb, n, w int) {
	if lvl < isaAVX2 {
		accTileGeneric(c, ldc, rows, a, as, ar, b, ldb, n, w)
		return
	}
	l := rows - 1 // the assembly trusts these extents
	_, _, _ = c[l*ldc+w-1], a[(n-1)*as+l*ar], b[(n-1)*ldb+w-1]
	r1, r2, r3 := min(1, l), min(2, l), min(3, l)
	if lvl == isaAVX512 {
		accTile4x16AVX512(&c[0], &c[r1*ldc], &c[r2*ldc], &c[r3*ldc], &a[0], &a[r1*ar], &a[r2*ar], &a[r3*ar], as, &b[0], ldb, n, w)
		return
	}
	accTile4x8AVX2(&c[0], &c[r1*ldc], &c[r2*ldc], &c[r3*ldc], &a[0], &a[r1*ar], &a[r2*ar], &a[r3*ar], as, &b[0], ldb, n, w)
}
