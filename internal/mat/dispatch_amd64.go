//go:build amd64

package mat

// Dispatch of the five kernel primitives to their AVX2 variants: the
// axpys (axpy_amd64.s), the tile microkernel (tile_amd64.s) and the
// lone-column product (atx_amd64.s). They execute the identical
// per-element operation sequence as the generic loops — one fused
// multiply-add per term, the packed lanes holding adjacent output
// elements, never partial sums of one element — so their results are
// bitwise identical to them. AVX2 and FMA are guarded by the CPUID
// probe in cpu_amd64.go; below that level, or on empty operands, the
// generic loops run.

//go:noescape
func axpy42AVX2(c0, c1, b0, b1, b2, b3 *float64, vw *[8]float64, n int)

//go:noescape
func axpy4AVX2(c, b0, b1, b2, b3 *float64, v *[4]float64, n int)

//go:noescape
func axpy1AVX2(c, b *float64, v float64, n int)

//go:noescape
func atxNZAVX2(f, a, x *float64, k, m int) float64

//go:noescape
func tile4x8AVX2(c *float64, ldc int, a0, a1, a2, a3, b *float64, n int)

// axpy42 is the blocked dense kernels' shared inner primitive (see
// axpy42Generic for the definition), dispatched on the active ISA
// level. All slices must have length ≥ len(c0).
func axpy42(c0, c1, b0, b1, b2, b3 []float64, vw *[8]float64) {
	if len(c0) == 0 || isaLevel.Load() < isaAVX2 {
		axpy42Generic(c0, c1, b0, b1, b2, b3, vw)
		return
	}
	axpy42AVX2(&c0[0], &c1[0], &b0[0], &b1[0], &b2[0], &b3[0], vw, len(c0))
}

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
