package sparse

import (
	"bytes"
	"math"
	"testing"
	"testing/quick"

	"hpcnmf/internal/mat"
	"hpcnmf/internal/rng"
)

func randomCSR(rows, cols int, density float64, seed uint64) *CSR {
	return RandomER(rows, cols, density, rng.New(seed))
}

func randomDense(rows, cols int, seed uint64) *mat.Dense {
	m := mat.NewDense(rows, cols)
	m.RandomUniform(rng.New(seed))
	return m
}

func TestFromCoordsBasic(t *testing.T) {
	a := FromCoords(3, 4, []Coord{{0, 1, 2}, {2, 3, 5}, {0, 0, 1}})
	if a.NNZ() != 3 {
		t.Fatalf("NNZ = %d", a.NNZ())
	}
	if a.At(0, 1) != 2 || a.At(2, 3) != 5 || a.At(0, 0) != 1 || a.At(1, 1) != 0 {
		t.Fatal("FromCoords entries wrong")
	}
}

func TestFromCoordsSumsDuplicates(t *testing.T) {
	a := FromCoords(2, 2, []Coord{{0, 0, 1}, {0, 0, 2.5}})
	if a.NNZ() != 1 || a.At(0, 0) != 3.5 {
		t.Fatalf("duplicates not summed: nnz=%d v=%v", a.NNZ(), a.At(0, 0))
	}
}

func TestFromCoordsPanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range coord did not panic")
		}
	}()
	FromCoords(2, 2, []Coord{{2, 0, 1}})
}

func TestDenseRoundTrip(t *testing.T) {
	d := randomDense(7, 5, 1)
	// Zero out some entries to create sparsity.
	for i := 0; i < 7; i++ {
		for j := 0; j < 5; j++ {
			if (i+j)%3 == 0 {
				d.Set(i, j, 0)
			}
		}
	}
	var entries []Coord
	for i := 0; i < 7; i++ {
		for j := 0; j < 5; j++ {
			if v := d.At(i, j); v != 0 {
				entries = append(entries, Coord{i, j, v})
			}
		}
	}
	if !FromCoords(7, 5, entries).ToDense().Equal(d, 0) {
		t.Fatal("FromCoords/ToDense round trip failed")
	}
}

func TestSubmatrixBlock(t *testing.T) {
	a := randomCSR(12, 9, 0.4, 4)
	b := a.Submatrix(2, 9, 3, 8)
	if !b.ToDense().Equal(a.ToDense().Submatrix(2, 9, 3, 8), 0) {
		t.Fatal("Submatrix mismatch vs dense")
	}
}

func TestSubmatrixTiling(t *testing.T) {
	// Cutting a matrix into a 2x2 block grid and reassembling the
	// dense forms must reproduce the original (the operation the 2D
	// distribution performs).
	a := randomCSR(11, 7, 0.35, 5)
	d := a.ToDense()
	blocks := [][]*mat.Dense{
		{a.Submatrix(0, 5, 0, 3).ToDense(), a.Submatrix(0, 5, 3, 7).ToDense()},
		{a.Submatrix(5, 11, 0, 3).ToDense(), a.Submatrix(5, 11, 3, 7).ToDense()},
	}
	for i := 0; i < d.Rows; i++ {
		for j := 0; j < d.Cols; j++ {
			bi, bj, oi, oj := 0, 0, i, j
			if i >= 5 {
				bi, oi = 1, i-5
			}
			if j >= 3 {
				bj, oj = 1, j-3
			}
			if blocks[bi][bj].At(oi, oj) != d.At(i, j) {
				t.Fatalf("2x2 block tiling does not reassemble entry (%d,%d)", i, j)
			}
		}
	}
}

func TestMulBtAgainstDense(t *testing.T) {
	a := randomCSR(9, 6, 0.5, 6)
	b := randomDense(6, 4, 7) // cols x k
	got := mat.NewDense(9, 4)
	a.MulBtTo(got, b, nil)
	want := mat.NewDense(9, 4)
	mat.ParMulTo(want, a.ToDense(), b, nil)
	if got.MaxDiff(want) > 1e-12 {
		t.Fatalf("MulBt mismatch: %g", got.MaxDiff(want))
	}
}

func TestMulHtAgainstDense(t *testing.T) {
	a := randomCSR(9, 6, 0.5, 8)
	h := randomDense(4, 6, 9) // k x n
	got := mat.NewDense(9, 4)
	a.MulBtTo(got, h.T(), nil)
	want := mat.NewDense(9, 4)
	mat.ParMulABtTo(want, a.ToDense(), h, nil)
	if got.MaxDiff(want) > 1e-12 {
		t.Fatalf("MulHt mismatch: %g", got.MaxDiff(want))
	}
}

func TestMulWtAAgainstDense(t *testing.T) {
	a := randomCSR(9, 6, 0.5, 10)
	w := randomDense(9, 4, 11) // m x k
	got := mat.NewDense(4, 6)
	a.MulWtAToWS(got, w, nil, nil)
	want := mat.NewDense(4, 6)
	mat.ParMulAtBTo(want, w, a.ToDense(), nil)
	if got.MaxDiff(want) > 1e-12 {
		t.Fatalf("MulWtA mismatch: %g", got.MaxDiff(want))
	}
}

func TestSpMMProperty(t *testing.T) {
	f := func(seed uint64) bool {
		a := randomCSR(8, 7, 0.3, seed)
		h := randomDense(3, 7, seed+1)
		w := randomDense(8, 3, seed+2)
		d := a.ToDense()
		aht, want := mat.NewDense(8, 3), mat.NewDense(8, 3)
		a.MulBtTo(aht, h.T(), nil)
		mat.ParMulABtTo(want, d, h, nil)
		wta, want2 := mat.NewDense(3, 7), mat.NewDense(3, 7)
		a.MulWtAToWS(wta, w, nil, nil)
		mat.ParMulAtBTo(want2, w, d, nil)
		return aht.MaxDiff(want) < 1e-12 && wta.MaxDiff(want2) < 1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestSquaredFrobeniusNorm(t *testing.T) {
	a := randomCSR(10, 10, 0.2, 12)
	want := a.ToDense().SquaredFrobeniusNorm()
	if got := a.SquaredFrobeniusNorm(); math.Abs(got-want) > 1e-12 {
		t.Fatalf("‖A‖² = %v, want %v", got, want)
	}
}

func TestRandomERDensity(t *testing.T) {
	rows, cols, density := 500, 400, 0.01
	a := randomCSR(rows, cols, density, 13)
	expected := float64(rows*cols) * density
	got := float64(a.NNZ())
	if got < expected*0.8 || got > expected*1.2 {
		t.Fatalf("ER nnz = %v, expected ~%v", got, expected)
	}
	// CSR invariants: sorted columns within rows, monotone RowPtr.
	checkCSRInvariants(t, a)
}

func TestRandomERDeterministic(t *testing.T) {
	a := randomCSR(100, 80, 0.05, 14)
	b := randomCSR(100, 80, 0.05, 14)
	if !a.Equal(b, 0) {
		t.Fatal("RandomER is not deterministic for equal seeds")
	}
}

func TestRandomERFullDensity(t *testing.T) {
	a := randomCSR(5, 5, 1.0, 15)
	if a.NNZ() != 25 {
		t.Fatalf("density 1 produced %d/25 entries", a.NNZ())
	}
}

func TestRandomERZeroDensity(t *testing.T) {
	a := randomCSR(5, 5, 0, 16)
	if a.NNZ() != 0 {
		t.Fatalf("density 0 produced %d entries", a.NNZ())
	}
}

func TestRandomPowerLawShape(t *testing.T) {
	a := RandomPowerLaw(200, 4, rng.New(17))
	if a.Rows != 200 || a.Cols != 200 {
		t.Fatalf("shape %dx%d", a.Rows, a.Cols)
	}
	if a.NNZ() == 0 || a.NNZ() > 200*5 {
		t.Fatalf("nnz = %d out of expected range", a.NNZ())
	}
	checkCSRInvariants(t, a)
	// Degree skew: the max in-degree should well exceed the mean —
	// that is what distinguishes the webbase-like generator from ER.
	indeg := make([]int, 200)
	for _, c := range a.ColIdx {
		indeg[c]++
	}
	maxDeg, sum := 0, 0
	for _, d := range indeg {
		sum += d
		if d > maxDeg {
			maxDeg = d
		}
	}
	mean := float64(sum) / 200
	if float64(maxDeg) < 4*mean {
		t.Fatalf("max in-degree %d vs mean %.1f: no skew", maxDeg, mean)
	}
}

func checkCSRInvariants(t *testing.T, a *CSR) {
	t.Helper()
	if len(a.RowPtr) != a.Rows+1 || a.RowPtr[0] != 0 || a.RowPtr[a.Rows] != a.NNZ() {
		t.Fatal("RowPtr endpoints wrong")
	}
	for i := 0; i < a.Rows; i++ {
		if a.RowPtr[i] > a.RowPtr[i+1] {
			t.Fatalf("RowPtr not monotone at %d", i)
		}
		for p := a.RowPtr[i] + 1; p < a.RowPtr[i+1]; p++ {
			if a.ColIdx[p-1] >= a.ColIdx[p] {
				t.Fatalf("columns not strictly sorted in row %d", i)
			}
		}
	}
	for _, c := range a.ColIdx {
		if c < 0 || c >= a.Cols {
			t.Fatalf("column index %d out of range", c)
		}
	}
}

func TestMatrixMarketRoundTrip(t *testing.T) {
	a := randomCSR(15, 12, 0.25, 18)
	var buf bytes.Buffer
	if err := a.WriteMatrixMarket(&buf); err != nil {
		t.Fatal(err)
	}
	b, err := ReadMatrixMarket(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !a.Equal(b, 0) {
		t.Fatal("MatrixMarket round trip changed the matrix")
	}
}

func TestMatrixMarketRejectsGarbage(t *testing.T) {
	if _, err := ReadMatrixMarket(bytes.NewBufferString("not a matrix")); err == nil {
		t.Fatal("garbage header accepted")
	}
	if _, err := ReadMatrixMarket(bytes.NewBufferString("%%MatrixMarket matrix coordinate real general\n2 2 1\n5 5 1.0\n")); err == nil {
		t.Fatal("out-of-range entry accepted")
	}
	if _, err := ReadMatrixMarket(bytes.NewBufferString("%%MatrixMarket matrix coordinate real general\n2 2 3\n1 1 1.0\n")); err == nil {
		t.Fatal("wrong entry count accepted")
	}
}
