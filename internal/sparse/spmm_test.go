package sparse

import (
	"math"
	"testing"

	"hpcnmf/internal/mat"
	"hpcnmf/internal/par"
	"hpcnmf/internal/rng"
)

// skewCase builds matrices whose shape stresses the locality
// partitioner: empty rows, single dense rows dominating the nnz
// balance, single-column tiles, and power-law degree skew.
type skewCase struct {
	name string
	a    *CSR
}

func skewCases(t *testing.T) []skewCase {
	t.Helper()
	s := rng.New(123)
	var cases []skewCase

	cases = append(cases, skewCase{"ER-small", RandomER(40, 31, 0.15, s)})
	cases = append(cases, skewCase{"ER-pooled", RandomER(800, 600, 0.07, s)}) // ≈34k nnz, above spSerialNNZ
	cases = append(cases, skewCase{"powerlaw", RandomPowerLaw(300, 6, s)})

	// Every third row empty.
	var coords []Coord
	for i := 0; i < 50; i++ {
		if i%3 == 0 {
			continue
		}
		for j := 0; j < 20; j += 2 {
			coords = append(coords, Coord{Row: i, Col: j, Val: s.Float64()})
		}
	}
	cases = append(cases, skewCase{"empty-rows", FromCoords(50, 20, coords)})

	// One fully dense row in an otherwise nearly-empty matrix: an
	// nnz-balanced split must cut around it, a row split would not.
	coords = coords[:0]
	for j := 0; j < 500; j++ {
		coords = append(coords, Coord{Row: 7, Col: j, Val: s.Float64()})
	}
	coords = append(coords, Coord{Row: 0, Col: 3, Val: 1}, Coord{Row: 19, Col: 499, Val: 2})
	cases = append(cases, skewCase{"dense-row", FromCoords(20, 500, coords)})

	// Single-column tile (and its transpose shape, a single-row tile).
	coords = coords[:0]
	for i := 0; i < 30; i += 2 {
		coords = append(coords, Coord{Row: i, Col: 0, Val: s.Float64()})
	}
	cases = append(cases, skewCase{"single-col", FromCoords(30, 1, coords)})
	coords = coords[:0]
	for j := 0; j < 30; j += 3 {
		coords = append(coords, Coord{Row: 0, Col: j, Val: s.Float64()})
	}
	cases = append(cases, skewCase{"single-row", FromCoords(1, 30, coords)})

	// Fully empty tile.
	cases = append(cases, skewCase{"empty", FromCoords(12, 9, nil)})
	return cases
}

func denseRand(r, c int, s *rng.Stream) *mat.Dense {
	d := mat.NewDense(r, c)
	for i := range d.Data {
		d.Data[i] = 2*s.Float64() - 1
	}
	return d
}

func bitwiseEqual(t *testing.T, name string, got, want *mat.Dense) {
	t.Helper()
	for i := range got.Data {
		if math.Float64bits(got.Data[i]) != math.Float64bits(want.Data[i]) {
			t.Fatalf("%s: element %d = %g, want %g (bitwise)", name, i, got.Data[i], want.Data[i])
		}
	}
}

// TestSpMMBitwiseVsReference pins the locality-partitioned kernels
// against the scalar references bit for bit, across skewed shapes,
// k values covering all unroll remainders, and pool sizes including
// the serial path.
func TestSpMMBitwiseVsReference(t *testing.T) {
	s := rng.New(99)
	pools := []*par.Pool{nil, par.NewPool(2), par.NewPool(5)}
	for _, p := range pools {
		defer p.Close()
	}
	for _, tc := range skewCases(t) {
		for _, k := range []int{1, 3, 5, 17, 50} {
			b := denseRand(tc.a.Cols, k, s)
			w := denseRand(tc.a.Rows, k, s)

			wantBt := mat.NewDense(tc.a.Rows, k)
			RefMulBtTo(wantBt, tc.a, b)
			wantWtA := mat.NewDense(k, tc.a.Cols)
			RefMulWtATo(wantWtA, tc.a, w)

			for pi, p := range pools {
				gotBt := mat.NewDense(tc.a.Rows, k)
				tc.a.MulBtTo(gotBt, b, p)
				bitwiseEqual(t, tc.name+"/MulBtTo", gotBt, wantBt)

				gotWtA := mat.NewDense(k, tc.a.Cols)
				tc.a.MulWtAToWS(gotWtA, w, p, nil)
				bitwiseEqual(t, tc.name+"/MulWtATo", gotWtA, wantWtA)

				// The transposed form overwrites a dirty C.
				gotAtB := mat.NewDense(tc.a.Cols, k)
				for i := range gotAtB.Data {
					gotAtB.Data[i] = math.NaN()
				}
				tc.a.MulAtBTo(gotAtB, w, p)
				bitwiseEqual(t, tc.name+"/MulAtBTo", gotAtB, wantWtA.T())
				_ = pi
			}
		}
	}
}

// TestMulWtAToWSDirtyWorkspace checks that a workspace buffer left
// dirty by a previous use cannot leak into the result, and that the
// workspace path matches the allocating path bit for bit.
func TestMulWtAToWSDirtyWorkspace(t *testing.T) {
	s := rng.New(7)
	a := RandomER(120, 90, 0.1, s)
	w := denseRand(a.Rows, 13, s)
	want := mat.NewDense(13, a.Cols)
	RefMulWtATo(want, a, w)

	ws := mat.NewWorkspace()
	dirty := ws.Get(a.Cols, 13)
	for i := range dirty.Data {
		dirty.Data[i] = math.NaN()
	}
	ws.Put(dirty)

	got := mat.NewDense(13, a.Cols)
	a.MulWtAToWS(got, w, nil, ws)
	bitwiseEqual(t, "MulWtAToWS", got, want)
}

// TestNNZBounds checks the prefix-sum partitioner invariants:
// monotone boundaries, full coverage, no empty ranges beyond the
// guaranteed first/last, and balance on a skewed distribution.
func TestNNZBounds(t *testing.T) {
	// One heavy row among trivial ones.
	ptr := []int{0, 1, 2, 1003, 1004, 1005, 1006}
	for _, parts := range []int{1, 2, 3, 4, 8, 16} {
		bounds := nnzBounds(ptr, parts)
		if bounds[0] != 0 || bounds[len(bounds)-1] != len(ptr)-1 {
			t.Fatalf("parts=%d: bounds %v do not cover [0,%d]", parts, bounds, len(ptr)-1)
		}
		for i := 1; i < len(bounds); i++ {
			if bounds[i] <= bounds[i-1] {
				t.Fatalf("parts=%d: bounds %v not strictly increasing", parts, bounds)
			}
		}
		if len(bounds)-1 > parts {
			t.Fatalf("parts=%d: %d ranges produced", parts, len(bounds)-1)
		}
	}
	// Balance: an even nnz distribution must split into near-equal parts.
	even := make([]int, 101)
	for i := range even {
		even[i] = i * 10
	}
	bounds := nnzBounds(even, 4)
	if len(bounds) != 5 {
		t.Fatalf("even split gave bounds %v", bounds)
	}
	for i := 1; i < len(bounds); i++ {
		if n := even[bounds[i]] - even[bounds[i-1]]; n < 200 || n > 300 {
			t.Fatalf("even split range %d carries %d nnz: bounds %v", i, n, bounds)
		}
	}
	// Degenerate: all nnz in one row still yields a valid cover.
	onerow := []int{0, 0, 500, 500}
	bounds = nnzBounds(onerow, 4)
	if bounds[0] != 0 || bounds[len(bounds)-1] != 3 {
		t.Fatalf("one-row matrix gave bounds %v", bounds)
	}
}

// TestCSCIndexRoundTrip checks the cached transpose against the
// transpose built from the swapped coordinates: same entries, ascending
// rows of A within each row of the transpose, built only once.
func TestCSCIndexRoundTrip(t *testing.T) {
	for _, tc := range skewCases(t) {
		tr := tc.a.t()
		var swapped []Coord
		for i := 0; i < tc.a.Rows; i++ {
			for p := tc.a.RowPtr[i]; p < tc.a.RowPtr[i+1]; p++ {
				swapped = append(swapped, Coord{tc.a.ColIdx[p], i, tc.a.Val[p]})
			}
		}
		want := FromCoords(tc.a.Cols, tc.a.Rows, swapped)
		if !tr.Equal(want, 0) {
			t.Fatalf("%s: cached transpose differs from FromCoords of the swapped coordinates", tc.name)
		}
		// Cached: second call returns the same transpose.
		if tc.a.t() != tr {
			t.Fatalf("%s: t() rebuilt the cached transpose", tc.name)
		}
	}
}

// TestSpMMAcrossISAs sweeps every supported dispatch level:
// the sparse kernels inherit the bitwise contract from the axpy
// primitives, so results must be identical across levels.
func TestSpMMAcrossISAs(t *testing.T) {
	prev := mat.ISA()
	defer func() {
		if err := mat.SetISA(prev); err != nil {
			t.Fatalf("restoring ISA %q: %v", prev, err)
		}
	}()
	s := rng.New(42)
	a := RandomPowerLaw(200, 5, s)
	b := denseRand(a.Cols, 17, s)
	w := denseRand(a.Rows, 17, s)

	if err := mat.SetISA("generic"); err != nil {
		t.Fatal(err)
	}
	wantBt := mat.NewDense(a.Rows, 17)
	a.MulBtTo(wantBt, b, nil)
	wantWtA := mat.NewDense(17, a.Cols)
	a.MulWtAToWS(wantWtA, w, nil, nil)

	for _, isa := range mat.SupportedISAs() {
		if err := mat.SetISA(isa); err != nil {
			t.Fatalf("SetISA(%q): %v", isa, err)
		}
		got := mat.NewDense(a.Rows, 17)
		a.MulBtTo(got, b, nil)
		bitwiseEqual(t, isa+"/MulBtTo", got, wantBt)
		got2 := mat.NewDense(17, a.Cols)
		a.MulWtAToWS(got2, w, nil, nil)
		bitwiseEqual(t, isa+"/MulWtATo", got2, wantWtA)
	}
}

// TestSpMMIsFused holds the references and, at every dispatch level,
// the kernels to one fused multiply-add per stored entry: the entries
// (−1, fa, 1, 1, 1) against factor rows (1, fb, 0, 0, 0) sum to
// fma(fa, fb, −1) = −2⁻⁵⁴ fused, where a multiply-then-add gives 0.
func TestSpMMIsFused(t *testing.T) {
	const fa, fb, k = 1 + 0x1p-27, 1 - 0x1p-27, 5
	vals, rows := []float64{-1, fa, 1, 1, 1}, []float64{1, fb, 0, 0, 0}
	var row, col []Coord
	b := mat.NewDense(len(vals), k)
	for i, v := range vals {
		row = append(row, Coord{Row: 0, Col: i, Val: v})
		col = append(col, Coord{Row: i, Col: 0, Val: v})
		for j := range k {
			b.Set(i, j, rows[i])
		}
	}
	ar, ac := FromCoords(1, len(vals), row), FromCoords(len(vals), 1, col)
	want := mat.NewDense(1, k)
	want.Fill(-0x1p-54)
	bt, wta := mat.NewDense(1, k), mat.NewDense(k, 1)
	RefMulBtTo(bt, ar, b)
	bitwiseEqual(t, "RefMulBtTo", bt, want)
	RefMulWtATo(wta, ac, b)
	bitwiseEqual(t, "RefMulWtATo", wta, want)
	prev := mat.ISA()
	defer mat.SetISA(prev)
	for _, isa := range mat.SupportedISAs() {
		if err := mat.SetISA(isa); err != nil {
			t.Fatal(err)
		}
		ar.MulBtTo(bt, b, nil)
		bitwiseEqual(t, isa+"/MulBtTo", bt, want)
		ac.MulWtAToWS(wta, b, nil, nil)
		bitwiseEqual(t, isa+"/MulWtATo", wta, want)
	}
}

// FuzzCSRTileRoundTrip drives Submatrix tiling with fuzzed tile
// boundaries over a skewed matrix: reassembling the four quadrant
// tiles must reproduce the original, and each tile's kernels must
// match the references bit for bit.
func FuzzCSRTileRoundTrip(f *testing.F) {
	f.Add(uint16(10), uint16(10), int64(1))
	f.Add(uint16(0), uint16(0), int64(2))
	f.Add(uint16(199), uint16(199), int64(3))
	f.Add(uint16(7), uint16(150), int64(4))
	f.Fuzz(func(t *testing.T, rcut, ccut uint16, seed int64) {
		s := rng.New(uint64(seed))
		a := RandomPowerLaw(60, 4, s)
		r := int(rcut) % (a.Rows + 1)
		c := int(ccut) % (a.Cols + 1)
		tiles := []*CSR{
			a.Submatrix(0, r, 0, c), a.Submatrix(0, r, c, a.Cols),
			a.Submatrix(r, a.Rows, 0, c), a.Submatrix(r, a.Rows, c, a.Cols),
		}
		// Reassemble through coordinates and compare.
		var coords []Coord
		offs := [][2]int{{0, 0}, {0, c}, {r, 0}, {r, c}}
		for ti, tile := range tiles {
			if len(tile.RowPtr) != tile.Rows+1 || tile.RowPtr[tile.Rows] != tile.NNZ() {
				t.Fatalf("tile %d structurally invalid", ti)
			}
			for i := 0; i < tile.Rows; i++ {
				for p := tile.RowPtr[i]; p < tile.RowPtr[i+1]; p++ {
					coords = append(coords, Coord{
						Row: i + offs[ti][0], Col: tile.ColIdx[p] + offs[ti][1], Val: tile.Val[p],
					})
				}
			}
		}
		back := FromCoords(a.Rows, a.Cols, coords)
		if !a.Equal(back, 0) {
			t.Fatal("tile reassembly changed the matrix")
		}
		// Kernels on each tile agree with the scalar references.
		for ti, tile := range tiles {
			if tile.Rows == 0 || tile.Cols == 0 {
				continue
			}
			b := denseRand(tile.Cols, 5, s)
			w := denseRand(tile.Rows, 5, s)
			want := mat.NewDense(tile.Rows, 5)
			RefMulBtTo(want, tile, b)
			got := mat.NewDense(tile.Rows, 5)
			tile.MulBtTo(got, b, nil)
			for i := range got.Data {
				if math.Float64bits(got.Data[i]) != math.Float64bits(want.Data[i]) {
					t.Fatalf("tile %d MulBtTo diverges at %d", ti, i)
				}
			}
			want2 := mat.NewDense(5, tile.Cols)
			RefMulWtATo(want2, tile, w)
			got2 := mat.NewDense(5, tile.Cols)
			tile.MulWtAToWS(got2, w, nil, nil)
			for i := range got2.Data {
				if math.Float64bits(got2.Data[i]) != math.Float64bits(want2.Data[i]) {
					t.Fatalf("tile %d MulWtATo diverges at %d", ti, i)
				}
			}
		}
	})
}
