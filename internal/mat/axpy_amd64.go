//go:build amd64

package mat

// AVX2 variants of the axpy primitives (axpy_amd64.s). They execute
// the identical per-element operation sequence as the generic loops —
// the packed lanes hold adjacent output elements, never partial sums
// of one element — so their results are bitwise identical to them.
// AVX2 is guarded by the CPUID probe in cpu_amd64.go.

//go:noescape
func axpy42AVX2(c0, c1, b0, b1, b2, b3 *float64, vw *[8]float64, n int)

//go:noescape
func axpy4AVX2(c, b0, b1, b2, b3 *float64, v *[4]float64, n int)

//go:noescape
func axpy1AVX2(c, b *float64, v float64, n int)

// axpy42 is the blocked dense kernels' shared inner primitive (see
// axpy42Generic for the definition), dispatched on the active ISA
// level. All slices must have length ≥ len(c0).
func axpy42(c0, c1, b0, b1, b2, b3 []float64, vw *[8]float64) {
	n := len(c0)
	if n == 0 {
		return
	}
	if isaLevel.Load() == isaAVX2 {
		axpy42AVX2(&c0[0], &c1[0], &b0[0], &b1[0], &b2[0], &b3[0], vw, n)
	} else {
		axpy42Generic(c0, c1, b0, b1, b2, b3, vw)
	}
}

// Axpy4 computes c[j] += v[0]·b0[j] + v[1]·b1[j] + v[2]·b2[j] + v[3]·b3[j],
// the sparse kernels' four-entry inner step, dispatched on the active
// ISA level. All slices must have length ≥ len(c).
func Axpy4(c, b0, b1, b2, b3 []float64, v *[4]float64) {
	n := len(c)
	if n == 0 {
		return
	}
	if isaLevel.Load() == isaAVX2 {
		axpy4AVX2(&c[0], &b0[0], &b1[0], &b2[0], &b3[0], v, n)
	} else {
		axpy4Generic(c, b0, b1, b2, b3, v)
	}
}

// Axpy computes c[j] += v·b[j], dispatched on the active ISA level.
// b must have length ≥ len(c).
func Axpy(c, b []float64, v float64) {
	n := len(c)
	if n == 0 {
		return
	}
	if isaLevel.Load() == isaAVX2 {
		axpy1AVX2(&c[0], &b[0], v, n)
	} else {
		axpyGeneric(c, b, v)
	}
}
