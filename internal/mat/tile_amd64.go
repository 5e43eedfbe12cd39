//go:build amd64

package mat

// AVX2 variant of the tile microkernel (tile_amd64.s); without AVX2
// and FMA the portable Go tile runs, rounding every term the same way.

//go:noescape
func tile4x8AVX2(c *float64, ldc int, a0, a1, a2, a3, b *float64, n int)

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
