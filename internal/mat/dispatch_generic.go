//go:build !amd64

package mat

// Non-amd64 builds have a single dispatch level: the portable loops of
// axpy_impl.go and tile.go. The ISA registry still exists (reporting
// "generic") so callers need no build tags.

func bestISA() int32 { return isaGeneric }

// Axpy4 computes c[j] += v[0]·b0[j] + v[1]·b1[j] + v[2]·b2[j] + v[3]·b3[j],
// the sparse kernels' four-entry inner step. All slices must have
// length ≥ len(c).
func Axpy4(c, b0, b1, b2, b3 []float64, v *[4]float64) {
	axpy4Generic(c, b0, b1, b2, b3, v)
}

// Axpy computes c[j] += v·b[j]. b must have length ≥ len(c).
func Axpy(c, b []float64, v float64) {
	axpyGeneric(c, b, v)
}

// AtxNZ computes f = Aᵀx for a row-major A with len(f) columns and
// len(x) rows over the nonzero entries of x alone, and returns Σ x_i²
// over the same entries (see atxNZGeneric).
func AtxNZ(f, a, x []float64) float64 { return atxNZGeneric(f, a, x) }

// tile computes one MR×NR tile of C; off amd64 the portable loop is
// the only level (see tileGeneric for the definition).
func tile(c []float64, ldc int, a0, a1, a2, a3, b []float64) {
	tileGeneric(c, ldc, a0, a1, a2, a3, b)
}

// tile2 computes the MR×2NR tile of two adjacent packed panels.
func tile2(c []float64, ldc int, a0, a1, a2, a3, b0, b1 []float64) {
	tileGeneric(c, ldc, a0, a1, a2, a3, b0)
	tileGeneric(c[tileNR:], ldc, a0, a1, a2, a3, b1)
}

// accTile runs the strided tile; see accTileGeneric.
func accTile(_ int32, c []float64, ldc, rows int, a []float64, as, ar int, b []float64, ldb, n, w int) {
	accTileGeneric(c, ldc, rows, a, as, ar, b, ldb, n, w)
}
