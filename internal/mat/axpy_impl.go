package mat

import "math"

// Portable definitions of the three axpy primitives the accumulating
// kernels funnel into, and of the lone-column product built on the
// last of them (the tile kernel's portable loop is in tile.go).
// On amd64 these are the "generic" dispatch level and the reference
// the AVX2 level is pinned against; on other architectures they are
// the only level. Each keeps the per-output-element accumulation order
// of the naive kernels: every "+ v·b" below is one math.FMA(v, b, acc),
// rounded once, taken left to right — the nested calls equal a
// sequence of individual fused updates bit for bit, and the AVX2
// level's VFMADD231PD is the same operation per lane — so both
// dispatch levels produce identical results.

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
		c0[j] = math.FMA(v3, p3, math.FMA(v2, p2, math.FMA(v1, p1, math.FMA(v0, p0, c0[j]))))
		c1[j] = math.FMA(w3, p3, math.FMA(w2, p2, math.FMA(w1, p1, math.FMA(w0, p0, c1[j]))))
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
		c[j] = math.FMA(v3, b3[j], math.FMA(v2, b2[j], math.FMA(v1, b1[j], math.FMA(v0, p0, c[j]))))
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
		c[j] = math.FMA(v, bv, c[j])
	}
}

// atxNZGeneric is the lone-column product: it sets
//
//	f[j] = Σ x_i·a[i·k+j]   and returns   Σ x_i²
//
// with k = len(f), both sums over the nonzero x_i (±0 skipped, NaN
// kept) in ascending i from a +0 start: f[j] one math.FMA per term,
// the squares multiplied and then added. Skipping the zero rows costs
// the full product's bits only where it would end at +0 and f at −0,
// or where a non-finite row meets a zero (the caller's concern). a must
// have length ≥ len(x)·k.
func atxNZGeneric(f, a, x []float64) float64 {
	k, x2 := len(f), 0.0
	clear(f)
	for i, v := range x {
		if v != 0 {
			x2 += v * v
			axpyGeneric(f, a[i*k:i*k+k], v)
		}
	}
	return x2
}
