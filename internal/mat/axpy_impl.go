package mat

// Portable definitions of the three axpy primitives the accumulating
// kernels funnel into (the tile kernel's portable loop is in tile.go).
// On amd64 these are the "generic" dispatch level and the reference
// the AVX2 level is pinned against; on other architectures they are
// the only level. Each keeps the
// per-output-element accumulation order of the naive kernels — the
// left-associated sums below equal a sequence of individual "+="
// operations bit for bit — so both dispatch levels produce identical
// results.

// axpy42Generic updates two output rows from four shared input rows:
//
//	c0[j] = c0[j] + vw[0]·b0[j] + vw[1]·b1[j] + vw[2]·b2[j] + vw[3]·b3[j]
//	c1[j] = c1[j] + vw[4]·b0[j] + vw[5]·b1[j] + vw[6]·b2[j] + vw[7]·b3[j]
//
// for j in [0,len(c0)). Pairing the output rows halves the streamed
// loads per flop versus a single-row update. All slices must have
// length ≥ len(c0).
func axpy42Generic(c0, c1, b0, b1, b2, b3 []float64, vw *[8]float64) {
	v0, v1, v2, v3 := vw[0], vw[1], vw[2], vw[3]
	w0, w1, w2, w3 := vw[4], vw[5], vw[6], vw[7]
	c1 = c1[:len(c0)]
	b1 = b1[:len(c0)]
	b2 = b2[:len(c0)]
	b3 = b3[:len(c0)]
	for j, p0 := range b0[:len(c0)] {
		p1, p2, p3 := b1[j], b2[j], b3[j]
		c0[j] = c0[j] + v0*p0 + v1*p1 + v2*p2 + v3*p3
		c1[j] = c1[j] + w0*p0 + w1*p1 + w2*p2 + w3*p3
	}
}

// axpy4Generic updates one output row from four input rows:
//
//	c[j] = c[j] + v[0]·b0[j] + v[1]·b1[j] + v[2]·b2[j] + v[3]·b3[j]
//
// — the sparse kernels' inner step, where the four rows are the dense
// factor rows selected by four consecutive stored entries. All slices
// must have length ≥ len(c).
func axpy4Generic(c, b0, b1, b2, b3 []float64, v *[4]float64) {
	v0, v1, v2, v3 := v[0], v[1], v[2], v[3]
	b1 = b1[:len(c)]
	b2 = b2[:len(c)]
	b3 = b3[:len(c)]
	for j, p0 := range b0[:len(c)] {
		c[j] = c[j] + v0*p0 + v1*b1[j] + v2*b2[j] + v3*b3[j]
	}
}

// axpyGeneric updates one output row from one input row:
//
//	c[j] = c[j] + v·b[j]
//
// — the remainder step for sparse rows whose entry count is not a
// multiple of four. b must have length ≥ len(c).
func axpyGeneric(c, b []float64, v float64) {
	for j, bv := range b[:len(c)] {
		c[j] += v * bv
	}
}
