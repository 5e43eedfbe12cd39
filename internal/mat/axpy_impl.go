package mat

import "math"

// Portable definitions of the two axpy primitives the sparse kernels
// and the substitution funnel into, and of the lone-column product
// built on the last of them (the tiles' portable loops are in
// tile.go).
// On amd64 these are the "generic" dispatch level and the reference
// the AVX2 level is pinned against; on other architectures they are
// the only level. Each keeps the per-output-element accumulation order
// of the naive kernels: every "+ v·b" below is one math.FMA(v, b, acc),
// rounded once, taken left to right — the nested calls equal a
// sequence of individual fused updates bit for bit, and the AVX2
// level's VFMADD231PD is the same operation per lane — so both
// dispatch levels produce identical results.

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
