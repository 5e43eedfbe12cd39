package mat

import (
	"math"
	"slices"
	"testing"

	"hpcnmf/internal/par"
	"hpcnmf/internal/rng"
)

// randomSigned returns an r×c matrix with entries in [-1, 1).
func randomSigned(r, c int, s *rng.Stream) *Dense {
	d := NewDense(r, c)
	for i := range d.Data {
		d.Data[i] = 2*s.Float64() - 1
	}
	return d
}

// kernelShapes is the differential-test shape sweep: the paper's
// tall-skinny shapes plus the edge cases the blocked kernels must
// handle — k=1 (no full 4-block), empty dimensions, wide-short, and
// sizes straddling every unroll remainder (4q, 4q+1, ..., 4q+3).
var kernelShapes = []struct{ m, k, n int }{
	{0, 0, 0},
	{0, 3, 2},
	{1, 1, 1},
	{2, 1, 5},
	{1, 4, 1},
	{3, 2, 3},
	{4, 4, 4},
	{5, 5, 5},
	{6, 7, 9},
	{7, 3, 8},
	{8, 8, 2},
	{9, 1, 7},
	{16, 12, 10},
	{33, 17, 5},
	{100, 1, 3},
	{101, 50, 7},
	{64, 50, 50}, // the ANLS Aᵀ·B shape in miniature
	{3, 100, 2},  // tall reduction, skinny output
}

// projectionShapes are the Aᵀ·B shapes a projection serves, (m, k, n)
// with A m×k and B m×n — n masked and full at both strip widths (8,
// and 16 at avx512), m ending inside a reduction chunk and on its
// edge, k ragged and whole in row blocks — plus two small ones so
// that, with kernelShapes, every m mod 4 is seen.
func projectionShapes() []struct{ m, k, n int } {
	out := []struct{ m, k, n int }{{6, 5, 2*tileNR + 1}, {7, 70, 2 * tileNR}}
	for _, m := range []int{2881, 5184} {
		for _, k := range []int{16, 50, 65, 130} {
			for _, n := range []int{1, 2, 3, tileNR, 2*tileNR - 1, 2 * tileNR, 2*tileNR + 1} {
				out = append(out, struct{ m, k, n int }{m, k, n})
			}
		}
	}
	return out
}

// pools used in the differential sweep: inline and a real pool.
func testPools(t *testing.T) []*par.Pool {
	t.Helper()
	p := par.NewPool(4)
	t.Cleanup(p.Close)
	return []*par.Pool{nil, p}
}

// TestMulAddToMatchesReference checks the blocked C += A·B against the
// naive reference, bitwise (the unroll preserves accumulation order).
func TestMulAddToMatchesReference(t *testing.T) {
	s := rng.New(101)
	for _, pool := range testPools(t) {
		for _, sh := range kernelShapes {
			a := randomSigned(sh.m, sh.k, s)
			b := randomSigned(sh.k, sh.n, s)
			c0 := randomSigned(sh.m, sh.n, s)
			want := c0.Clone()
			RefMulAddTo(want, a, b)
			got := c0.Clone()
			ParMulAddTo(got, a, b, pool)
			if d := want.MaxDiff(got); d != 0 {
				t.Errorf("shape %v pool=%v: MulAddTo differs from reference by %g", sh, pool != nil, d)
			}
		}
	}
}

// TestMulAtBAddToMatchesReference checks the blocked C += Aᵀ·B, bit
// for bit, over the kernel and projection shapes at every dispatch
// level and at pool widths nil, 2 and 3, which split the tiles of C by
// row blocks (narrow B) or column strips (wide B) into uneven ranges.
func TestMulAtBAddToMatchesReference(t *testing.T) {
	restoreISA(t)
	s := rng.New(102)
	pools := []*par.Pool{nil, par.NewPool(2), par.NewPool(3)}
	defer pools[1].Close()
	defer pools[2].Close()
	for _, sh := range append(projectionShapes(), kernelShapes...) {
		a := randomSignedZeros(sh.m, sh.k, s)
		b := randomSignedZeros(sh.m, sh.n, s)
		c0 := randomSigned(sh.k, sh.n, s)
		want := c0.Clone()
		RefMulAtBAddTo(want, a, b)
		for _, isa := range SupportedISAs() {
			if err := SetISA(isa); err != nil {
				t.Fatalf("SetISA(%q): %v", isa, err)
			}
			for pi, pool := range pools {
				got := c0.Clone()
				ParMulAtBAddTo(got, a, b, pool)
				if i := diffBits(got.Data, want.Data); i >= 0 {
					t.Errorf("%s shape %v pool=%d: MulAtBAddTo[%d] = %x, want %x", isa, sh, pi+1,
						i, math.Float64bits(got.Data[i]), math.Float64bits(want.Data[i]))
				}
			}
		}
	}
}

// TestMulABtToMatchesReference checks the blocked C = A·Bᵀ.
func TestMulABtToMatchesReference(t *testing.T) {
	s := rng.New(103)
	for _, pool := range testPools(t) {
		for _, sh := range kernelShapes {
			a := randomSigned(sh.m, sh.k, s)
			b := randomSigned(sh.n, sh.k, s)
			want := NewDense(sh.m, sh.n)
			RefMulABtTo(want, a, b)
			got := NewDense(sh.m, sh.n)
			ParMulABtTo(got, a, b, pool)
			if d := want.MaxDiff(got); d != 0 {
				t.Errorf("shape %v pool=%v: MulABtTo differs from reference by %g", sh, pool != nil, d)
			}
		}
	}
}

// gramShapes is kernelShapes plus the one shape whose Gram products
// carry more than gramInlineFlops, so a pool really splits them.
func gramShapes() []struct{ m, k, n int } {
	long := gramInlineFlops/(50*51) + 1
	return append(slices.Clip(kernelShapes), struct{ m, k, n int }{long, 50, long})
}

// TestGramMatchesReference checks the blocked G += Aᵀ·A.
func TestGramMatchesReference(t *testing.T) {
	s := rng.New(104)
	for _, pool := range testPools(t) {
		for _, sh := range gramShapes() {
			a := randomSigned(sh.m, sh.k, s)
			g0 := randomSigned(sh.k, sh.k, s)
			// The reference mirrors the upper triangle at the end, so
			// start both from a symmetric accumulator.
			for i := 0; i < sh.k; i++ {
				for j := 0; j < i; j++ {
					g0.Set(i, j, g0.At(j, i))
				}
			}
			want := g0.Clone()
			RefGramAddTo(want, a)
			got := g0.Clone()
			ParGramAddTo(got, a, pool)
			if d := want.MaxDiff(got); d != 0 {
				t.Errorf("shape %v pool=%v: GramAddTo differs from reference by %g", sh, pool != nil, d)
			}
		}
	}
}

// TestGramTMatchesReference checks the blocked G = A·Aᵀ.
func TestGramTMatchesReference(t *testing.T) {
	s := rng.New(105)
	for _, pool := range testPools(t) {
		for _, sh := range gramShapes() {
			a := randomSigned(sh.k, sh.n, s)
			want := RefGramT(a)
			got := NewDense(sh.k, sh.k)
			ParGramTTo(got, a, pool)
			if d := want.MaxDiff(got); d != 0 {
				t.Errorf("shape %v pool=%v: GramT differs from reference by %g", sh, pool != nil, d)
			}
		}
	}
}

// tileSentinel pre-fills tile-kernel outputs and their margins: a NaN
// with a payload no computation produces.
var tileSentinel = math.Float64frombits(0x7ff8dead0000beef)

// guarded returns an r×c matrix whose storage sits between two
// sentinel-filled margins, everything pre-filled with the sentinel, and
// a check that the margins are untouched — how the tile tests see a
// padded lane or a ragged-edge row escaping its scratch tile.
func guarded(r, c int) (*Dense, func() bool) {
	const margin = 2 * tileMR * tileNR
	buf := make([]float64, r*c+2*margin)
	for i := range buf {
		buf[i] = tileSentinel
	}
	d := &Dense{Rows: r, Cols: c, Data: buf[margin : margin+r*c : margin+r*c]}
	return d, func() bool {
		for _, v := range append(buf[:margin:margin], buf[margin+r*c:]...) {
			if math.Float64bits(v) != math.Float64bits(tileSentinel) {
				return false
			}
		}
		return true
	}
}

// randomSignedZeros is randomSigned with every seventh entry an exact
// (alternately negative) zero.
func randomSignedZeros(r, c int, s *rng.Stream) *Dense {
	d := randomSigned(r, c, s)
	for i := 0; i < len(d.Data); i += 7 {
		d.Data[i] = math.Copysign(0, float64(i%2)-0.5)
	}
	return d
}

// TestTileMatchesReference pins the tile kernel's three products —
// A·Hᵀ, A·B on a packed n×k panel, and H·Hᵀ — against the scalar
// references bit for bit, at every dispatch level and pool
// width, over shapes straddling every tile edge (rows mod MR, columns
// mod NR, reduction mod the unroll, empty dimensions, and enough row
// blocks that a pool really splits them). Outputs start as sentinels
// inside sentinel margins: a padded lane or a short block's spare row
// reaching memory shows as a clobbered margin or a wrong neighbour.
func TestTileMatchesReference(t *testing.T) {
	restoreISA(t)
	s := rng.New(106)
	pools := []*par.Pool{nil, par.NewPool(2), par.NewPool(3)}
	defer pools[1].Close()
	defer pools[2].Close()
	check := func(isa, what string, m, k, n, pool int, got, want *Dense, intact func() bool) {
		t.Helper()
		if i := diffBits(got.Data, want.Data); i >= 0 {
			t.Errorf("%s %s m=%d k=%d n=%d pool=%d: [%d] = %x, want %x", isa, what, m, k, n, pool+1,
				i, math.Float64bits(got.Data[i]), math.Float64bits(want.Data[i]))
		}
		if !intact() {
			t.Errorf("%s %s m=%d k=%d n=%d pool=%d: wrote outside C", isa, what, m, k, n, pool+1)
		}
	}
	for _, isa := range SupportedISAs() {
		if err := SetISA(isa); err != nil {
			t.Fatalf("SetISA(%q): %v", isa, err)
		}
		for _, m := range []int{0, 1, 3, 4, 5, 9, 23} {
			for _, k := range []int{0, 1, 7, 8, 9, 16, 17, 50} {
				for _, n := range []int{0, 1, 3, 4, 5, 1920} {
					a := randomSignedZeros(m, n, s)
					h := randomSignedZeros(k, n, s)
					ht := h.T()
					wantABt := NewDense(m, k)
					RefMulABtTo(wantABt, a, h)
					wantAB := NewDense(m, k)
					RefMulAddTo(wantAB, a, ht)
					wantG := RefGramT(h)
					for pi, pool := range pools {
						c, intact := guarded(m, k)
						ParMulABtTo(c, a, h, pool)
						check(isa, "MulABt", m, k, n, pi, c, wantABt, intact)

						c, intact = guarded(m, k)
						ParMulPackedTo(c, a, PackCols(nil, ht), pool)
						check(isa, "MulPacked", m, k, n, pi, c, wantAB, intact)

						g, intact := guarded(k, k)
						ParGramTTo(g, h, pool)
						check(isa, "GramT", m, k, n, pi, g, wantG, intact)
					}
				}
			}
		}
	}
}

// TestKernelsRandomizedSweep is the property sweep: many random odd
// shapes, all kernels, bitwise against the references.
func TestKernelsRandomizedSweep(t *testing.T) {
	s := rng.New(4242)
	dims := rng.New(4343)
	pool := par.NewPool(3)
	defer pool.Close()
	for trial := 0; trial < 60; trial++ {
		m := int(dims.Uint64() % 40)
		k := int(dims.Uint64()%30) + 1
		n := int(dims.Uint64() % 35)
		a := randomSigned(m, k, s)
		b := randomSigned(k, n, s)
		c := NewDense(m, n)
		want := NewDense(m, n)
		RefMulAddTo(want, a, b)
		ParMulTo(c, a, b, pool)
		if d := want.MaxDiff(c); d != 0 {
			t.Fatalf("trial %d (%dx%dx%d): MulTo off by %g", trial, m, k, n, d)
		}

		bt := randomSigned(n, k, s)
		cab := NewDense(m, n)
		wab := NewDense(m, n)
		RefMulABtTo(wab, a, bt)
		ParMulABtTo(cab, a, bt, pool)
		if d := wab.MaxDiff(cab); d != 0 {
			t.Fatalf("trial %d: MulABtTo off by %g", trial, d)
		}

		g := NewDense(k, k)
		wg := NewDense(k, k)
		RefGramAddTo(wg, a)
		ParGramTo(g, a, pool)
		if d := wg.MaxDiff(g); d != 0 {
			t.Fatalf("trial %d: Gram off by %g", trial, d)
		}
	}
}

// TestNoZeroSkip verifies the kernels follow IEEE semantics on
// non-finite data instead of skipping zero multipliers: a zero entry
// against an Inf must poison the output with NaN (the seed kernels'
// `if v == 0 { continue }` branch got this wrong).
func TestNoZeroSkip(t *testing.T) {
	a := FromRows([][]float64{{0, 1}})       // 1×2
	b := FromRows([][]float64{{inf()}, {2}}) // 2×1
	c := NewDense(1, 1)
	ParMulAddTo(c, a, b, nil)
	if !math.IsNaN(c.At(0, 0)) {
		t.Errorf("MulAddTo 0·Inf = %v, want NaN", c.At(0, 0))
	}
	at := FromRows([][]float64{{0}, {1}}) // 2×1 (column of A)
	bt := FromRows([][]float64{{inf()}, {2}})
	c2 := NewDense(1, 1)
	ParMulAtBAddTo(c2, at, bt, nil)
	if !math.IsNaN(c2.At(0, 0)) {
		t.Errorf("MulAtBAddTo 0·Inf = %v, want NaN", c2.At(0, 0))
	}
	g := NewDense(1, 1)
	ParGramAddTo(g, FromRows([][]float64{{0}, {inf()}}), nil)
	if !math.IsInf(g.At(0, 0), 1) {
		t.Errorf("GramAddTo with Inf entry = %v, want +Inf", g.At(0, 0))
	}
	// The tile kernel's three products, at every dispatch level.
	restoreISA(t)
	for _, isa := range SupportedISAs() {
		if err := SetISA(isa); err != nil {
			t.Fatalf("SetISA(%q): %v", isa, err)
		}
		hRow := FromRows([][]float64{{inf(), 2}}) // 1×2: H with one row
		abt := NewDense(1, 1)
		if ParMulABtTo(abt, a, hRow, nil); !math.IsNaN(abt.At(0, 0)) {
			t.Errorf("%s MulABtTo 0·Inf = %v, want NaN", isa, abt.At(0, 0))
		}
		ParMulPackedTo(c, a, PackCols(nil, b), nil)
		if !math.IsNaN(c.At(0, 0)) {
			t.Errorf("%s MulPackedTo 0·Inf = %v, want NaN", isa, c.At(0, 0))
		}
		g := NewDense(2, 2)
		if ParGramTTo(g, FromRows([][]float64{{0, 1}, {inf(), 2}}), nil); !math.IsNaN(g.At(0, 1)) || !math.IsNaN(g.At(1, 0)) || !math.IsInf(g.At(1, 1), 1) {
			t.Errorf("%s GramT with 0·Inf off the diagonal = %v", isa, g)
		}
		// Aᵀ·B, masked and full: a zero in either operand against an
		// Inf in the other, at reduction rows 1 and 4.
		for _, n := range []int{1, 2*tileNR - 1, 2 * tileNR} {
			for _, row := range []int{1, 4} {
				for _, zeroInA := range []bool{true, false} {
					an, bn := NewDense(5, 3), NewDense(5, n)
					an.Fill(1)
					bn.Fill(1)
					av, bv := 0.0, inf()
					if !zeroInA {
						av, bv = bv, av
					}
					an.Set(row, 2, av)
					bn.Set(row, n-1, bv)
					c := NewDense(3, n)
					if ParMulAtBTo(c, an, bn, nil); !math.IsNaN(c.At(2, n-1)) {
						t.Errorf("%s MulAtBTo n=%d row %d zeroInA=%v: 0·Inf = %v, want NaN", isa, n, row, zeroInA, c.At(2, n-1))
					}
				}
			}
		}
	}
}

func inf() float64 { return math.Inf(1) }

// TestTriangleBounds checks the balanced partition covers [0,k)
// exactly and monotonically for a spread of sizes and widths.
func TestTriangleBounds(t *testing.T) {
	for _, k := range []int{1, 2, 3, 5, 17, 50, 128} {
		for _, w := range []int{1, 2, 3, 4, 7, 16} {
			b := triangleBounds(k, w)
			if b[0] != 0 || b[len(b)-1] != k {
				t.Fatalf("k=%d w=%d: bounds %v do not span [0,%d]", k, w, b, k)
			}
			for i := 1; i < len(b); i++ {
				if b[i] < b[i-1] {
					t.Fatalf("k=%d w=%d: bounds %v not monotone", k, w, b)
				}
			}
			if len(b)-1 > w {
				t.Fatalf("k=%d w=%d: %d ranges exceed worker count", k, w, len(b)-1)
			}
		}
	}
}

// TestWorkspaceReuse checks Get/Put recycling: a steady-state pattern
// allocates only on the first round, and best-fit keeps big buffers
// for big requests.
func TestWorkspaceReuse(t *testing.T) {
	ws := NewWorkspace()
	big := ws.Get(100, 10)
	small := ws.Get(5, 5)
	bigData := &big.Data[0]
	ws.Put(big)
	ws.Put(small)
	// Best fit: a 5×5 request must take the 25-cap buffer, not the
	// 1000-cap one.
	got := ws.Get(5, 5)
	if cap(got.Data) != 25 {
		t.Errorf("best-fit Get(5,5) took a cap-%d buffer", cap(got.Data))
	}
	got2 := ws.Get(100, 10)
	if &got2.Data[0] != bigData {
		t.Errorf("Get(100,10) did not recycle the big buffer")
	}
	// Reshape within capacity: a 10×10 fits the 1000-cap buffer.
	ws.Put(got2)
	r := ws.Get(10, 10)
	if r.Rows != 10 || r.Cols != 10 || len(r.Data) != 100 {
		t.Errorf("reshaped buffer is %dx%d len %d", r.Rows, r.Cols, len(r.Data))
	}
	// Nil workspace degenerates to allocation.
	var nilWS *Workspace
	d := nilWS.Get(3, 4)
	if d.Rows != 3 || d.Cols != 4 {
		t.Errorf("nil workspace Get = %dx%d", d.Rows, d.Cols)
	}
	nilWS.Put(d) // must not panic: the buffer is left to the collector
}

// TestWorkspaceSteadyStateAllocs verifies the arena's core promise:
// a fixed Get/Put pattern stops allocating after warm-up.
func TestWorkspaceSteadyStateAllocs(t *testing.T) {
	ws := NewWorkspace()
	round := func() {
		a := ws.Get(64, 8)
		b := ws.Get(8, 8)
		c := ws.Get(8, 64)
		c.Zero()
		ws.Put(a)
		ws.Put(b)
		ws.Put(c)
	}
	round() // warm up
	if allocs := testing.AllocsPerRun(50, round); allocs != 0 {
		t.Errorf("steady-state workspace round allocates %v times", allocs)
	}
}

// TestTTo checks the transpose-into helper against T.
func TestTTo(t *testing.T) {
	s := rng.New(7)
	a := randomSigned(5, 9, s)
	dst := NewDense(9, 5)
	a.TTo(dst)
	if d := a.T().MaxDiff(dst); d != 0 {
		t.Errorf("TTo differs from T by %g", d)
	}
	defer func() {
		if recover() == nil {
			t.Error("TTo with wrong shape did not panic")
		}
	}()
	a.TTo(NewDense(5, 9))
}
