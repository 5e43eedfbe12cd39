//go:build !amd64

package mat

// tile computes one MR×NR tile of C; off amd64 the portable loop is
// the only level (see tileGeneric for the definition).
func tile(c []float64, ldc int, a0, a1, a2, a3, b []float64) {
	tileGeneric(c, ldc, a0, a1, a2, a3, b)
}
