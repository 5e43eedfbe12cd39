package mat

import (
	"math"
	"slices"
	"testing"
	"testing/quick"

	"hpcnmf/internal/rng"
)

// mul returns A·B in a fresh matrix, computed by the production kernel.
func mul(a, b *Dense) *Dense {
	c := NewDense(a.Rows, b.Cols)
	ParMulTo(c, a, b, nil)
	return c
}

// gram returns AᵀA in a fresh matrix, computed by the production kernel.
func gram(a *Dense) *Dense {
	g := NewDense(a.Cols, a.Cols)
	ParGramTo(g, a, nil)
	return g
}

func randomDense(rows, cols int, seed uint64) *Dense {
	m := NewDense(rows, cols)
	m.RandomUniform(rng.New(seed))
	return m
}

// naiveMul is the O(mnp) reference multiply tests compare against.
func naiveMul(a, b *Dense) *Dense {
	c := NewDense(a.Rows, b.Cols)
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < b.Cols; j++ {
			s := 0.0
			for l := 0; l < a.Cols; l++ {
				s += a.At(i, l) * b.At(l, j)
			}
			c.Set(i, j, s)
		}
	}
	return c
}

func TestAtSetRoundTrip(t *testing.T) {
	m := NewDense(3, 4)
	m.Set(1, 2, 7.5)
	if m.At(1, 2) != 7.5 {
		t.Fatalf("At(1,2) = %v after Set", m.At(1, 2))
	}
	if m.At(2, 1) != 0 {
		t.Fatal("unrelated entry modified")
	}
}

func TestFromRows(t *testing.T) {
	m := FromRows([][]float64{{1, 2}, {3, 4}, {5, 6}})
	if m.Rows != 3 || m.Cols != 2 || m.At(2, 1) != 6 {
		t.Fatalf("FromRows produced %v", m)
	}
}

func TestFromRowsRaggedPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("ragged FromRows did not panic")
		}
	}()
	FromRows([][]float64{{1, 2}, {3}})
}

func TestCloneIsDeep(t *testing.T) {
	a := randomDense(4, 5, 1)
	b := a.Clone()
	b.Set(0, 0, 99)
	if a.At(0, 0) == 99 {
		t.Fatal("Clone shares storage with original")
	}
}

func TestTranspose(t *testing.T) {
	a := randomDense(5, 3, 2)
	at := a.T()
	if at.Rows != 3 || at.Cols != 5 {
		t.Fatalf("T shape %dx%d", at.Rows, at.Cols)
	}
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < a.Cols; j++ {
			if a.At(i, j) != at.At(j, i) {
				t.Fatalf("T mismatch at (%d,%d)", i, j)
			}
		}
	}
	if !a.T().T().Equal(a, 0) {
		t.Fatal("double transpose is not identity")
	}
}

func TestSubmatrixAndStack(t *testing.T) {
	a := randomDense(6, 4, 3)
	top, bottom := a.SubmatrixRows(0, 2), a.SubmatrixRows(2, 6)
	if !slices.Equal(slices.Concat(top.Data, bottom.Data), a.Data) {
		t.Fatal("SubmatrixRows pieces do not reassemble the original")
	}
	left, right := a.SubmatrixCols(0, 1), a.SubmatrixCols(1, 4)
	for i := 0; i < a.Rows; i++ {
		if !slices.Equal(slices.Concat(left.Row(i), right.Row(i)), a.Row(i)) {
			t.Fatalf("SubmatrixCols pieces do not reassemble row %d of the original", i)
		}
	}
	blk := a.Submatrix(1, 3, 2, 4)
	if blk.Rows != 2 || blk.Cols != 2 || blk.At(0, 0) != a.At(1, 2) {
		t.Fatal("Submatrix block wrong")
	}
	b := NewDense(6, 4)
	b.SetSubmatrix(1, 2, blk)
	if b.At(2, 3) != a.At(2, 3) {
		t.Fatal("SetSubmatrix did not place block")
	}
}

func TestSubmatrixPanics(t *testing.T) {
	a := NewDense(3, 3)
	for _, fn := range []func(){
		func() { a.SubmatrixRows(-1, 2) },
		func() { a.SubmatrixRows(2, 4) },
		func() { a.SubmatrixCols(0, 5) },
		func() { a.Submatrix(0, 1, 2, 5) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("out-of-range submatrix did not panic")
				}
			}()
			fn()
		}()
	}
}

func TestArithmetic(t *testing.T) {
	a := randomDense(3, 3, 4)
	b := randomDense(3, 3, 5)
	want := 0.0
	for i, v := range a.Data {
		want = math.Max(want, math.Abs(v-b.Data[i]))
	}
	if got := a.MaxDiff(b); got != want {
		t.Fatalf("MaxDiff = %v, want max |A−B| = %v", got, want)
	}
	if !a.Equal(b, want) || a.Equal(b, math.Nextafter(want, 0)) {
		t.Fatalf("Equal does not hold at tolerance exactly max |A−B| = %v", want)
	}
}

func TestClampNonneg(t *testing.T) {
	a := FromRows([][]float64{{-1, 2}, {0, -3}})
	a.ClampNonneg()
	if a.Min() < 0 {
		t.Fatalf("negative entries survive clamp: %v", a)
	}
	if a.At(0, 1) != 2 {
		t.Fatal("clamp changed positive entries")
	}
}

func TestNorms(t *testing.T) {
	a := FromRows([][]float64{{3, 0}, {0, 4}})
	if got := a.SquaredFrobeniusNorm(); math.Abs(got-25) > 1e-13 {
		t.Fatalf("‖A‖²_F = %v, want 25", got)
	}
}

func TestDotTrace(t *testing.T) {
	a := randomDense(4, 4, 6)
	b := randomDense(4, 4, 7)
	// ⟨A, B⟩ = trace(AᵀB)
	atb, want := NewDense(4, 4), 0.0
	ParMulAtBTo(atb, a, b, nil)
	for i := 0; i < atb.Rows; i++ {
		want += atb.At(i, i)
	}
	if got := Dot(a, b); math.Abs(got-want) > 1e-12 {
		t.Fatalf("Dot = %v, trace(AᵀB) = %v", got, want)
	}
}

func TestMinMaxIsFinite(t *testing.T) {
	a := FromRows([][]float64{{-2, 5}, {1, 0}})
	if a.Min() != -2 {
		t.Fatalf("Min = %v", a.Min())
	}
	if !a.IsFinite() {
		t.Fatal("finite matrix reported non-finite")
	}
	a.Set(0, 0, math.NaN())
	if a.IsFinite() {
		t.Fatal("NaN not detected")
	}
}

func TestMulAgainstNaive(t *testing.T) {
	for _, dims := range [][3]int{{1, 1, 1}, {3, 4, 5}, {7, 2, 9}, {10, 10, 10}, {1, 8, 3}} {
		a := randomDense(dims[0], dims[1], uint64(dims[0]*100+dims[1]))
		b := randomDense(dims[1], dims[2], uint64(dims[2]))
		got := mul(a, b)
		want := naiveMul(a, b)
		if got.MaxDiff(want) > 1e-12 {
			t.Fatalf("Mul mismatch for dims %v: max diff %g", dims, got.MaxDiff(want))
		}
	}
}

func TestMulAtBAgainstNaive(t *testing.T) {
	a := randomDense(9, 4, 11)
	b := randomDense(9, 6, 12)
	got := NewDense(4, 6)
	ParMulAtBTo(got, a, b, nil)
	want := naiveMul(a.T(), b)
	if got.MaxDiff(want) > 1e-12 {
		t.Fatalf("MulAtB mismatch: %g", got.MaxDiff(want))
	}
}

func TestMulABtAgainstNaive(t *testing.T) {
	a := randomDense(5, 7, 13)
	b := randomDense(8, 7, 14)
	got := NewDense(5, 8)
	ParMulABtTo(got, a, b, nil)
	want := naiveMul(a, b.T())
	if got.MaxDiff(want) > 1e-12 {
		t.Fatalf("MulABt mismatch: %g", got.MaxDiff(want))
	}
}

func TestMulAddToAccumulates(t *testing.T) {
	a := randomDense(3, 4, 15)
	b := randomDense(4, 2, 16)
	c := randomDense(3, 2, 17)
	want := naiveMul(a, b)
	for i, v := range c.Data {
		want.Data[i] += v
	}
	ParMulAddTo(c, a, b, nil)
	if c.MaxDiff(want) > 1e-12 {
		t.Fatal("MulAddTo did not accumulate")
	}
}

func TestMulDimensionPanics(t *testing.T) {
	a := NewDense(2, 3)
	b := NewDense(4, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("dimension mismatch did not panic")
		}
	}()
	ParMulTo(NewDense(2, 2), a, b, nil)
}

func TestGramAgainstNaive(t *testing.T) {
	a := randomDense(10, 5, 18)
	got := gram(a)
	want := naiveMul(a.T(), a)
	if got.MaxDiff(want) > 1e-12 {
		t.Fatalf("Gram mismatch: %g", got.MaxDiff(want))
	}
}

func TestGramTAgainstNaive(t *testing.T) {
	a := randomDense(4, 12, 19)
	got := NewDense(4, 4)
	ParGramTTo(got, a, nil)
	want := naiveMul(a, a.T())
	if got.MaxDiff(want) > 1e-12 {
		t.Fatalf("GramT mismatch: %g", got.MaxDiff(want))
	}
}

func TestGramSymmetryProperty(t *testing.T) {
	f := func(seed uint64) bool {
		a := randomDense(6, 4, seed)
		g := gram(a)
		for i := 0; i < g.Rows; i++ {
			for j := 0; j < g.Cols; j++ {
				if g.At(i, j) != g.At(j, i) {
					return false
				}
			}
			if g.At(i, i) < 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestInitAddressedLayoutIndependence(t *testing.T) {
	// A 6x4 matrix generated whole must equal the same matrix
	// generated as two 3x4 blocks with row offsets.
	whole := NewDense(6, 4)
	whole.InitAddressed(99, 0, 0)
	top := NewDense(3, 4)
	top.InitAddressed(99, 0, 0)
	bottom := NewDense(3, 4)
	bottom.InitAddressed(99, 3, 0)
	if !slices.Equal(slices.Concat(top.Data, bottom.Data), whole.Data) {
		t.Fatal("InitAddressed depends on block layout")
	}
}

func TestCholeskySolve(t *testing.T) {
	// Build an SPD matrix G = MᵀM + I and check G·X = B round-trips.
	m := randomDense(8, 5, 20)
	g := gram(m)
	for i := 0; i < 5; i++ {
		g.Set(i, i, g.At(i, i)+1)
	}
	b := randomDense(5, 3, 21)
	l, inv := NewDense(5, 5), make([]float64, 5)
	if err := CholeskyInto(l, g, inv); err != nil {
		t.Fatalf("Cholesky failed on SPD matrix: %v", err)
	}
	// L·Lᵀ must reconstruct G.
	rec := NewDense(5, 5)
	if ParMulABtTo(rec, l, l, nil); rec.MaxDiff(g) > 1e-10 {
		t.Fatalf("L·Lᵀ != G: %g", rec.MaxDiff(g))
	}
	for i, r := range inv {
		if r != 1/l.At(i, i) {
			t.Fatalf("inv[%d] = %g, want 1/L[%d][%d] = %g", i, r, i, i, 1/l.At(i, i))
		}
	}
	x := NewDense(5, 3)
	CholSolveInto(x, l, inv, b)
	if res := mul(g, x); res.MaxDiff(b) > 1e-9 {
		t.Fatalf("G·X != B: %g", res.MaxDiff(b))
	}
}

func TestCholeskyRejectsIndefinite(t *testing.T) {
	g := FromRows([][]float64{{1, 2}, {2, 1}}) // eigenvalues 3, -1
	if err := CholeskyInto(NewDense(2, 2), g, make([]float64, 2)); err == nil {
		t.Fatal("Cholesky accepted an indefinite matrix")
	}
}

func TestSolveSPDRegularizesSingular(t *testing.T) {
	// Rank-1 Gram: singular but PSD; SolveSPDInto must still return
	// something finite satisfying the regularized system.
	v := FromRows([][]float64{{1, 2, 3}})
	g := gram(v) // 3x3 rank 1
	b := randomDense(3, 2, 22)
	x := NewDense(3, 2)
	if err := SolveSPDInto(x, g, b, nil); err != nil {
		t.Fatalf("SolveSPDInto failed on PSD singular matrix: %v", err)
	}
	if !x.IsFinite() {
		t.Fatal("SolveSPDInto returned non-finite solution")
	}
}

func TestSolveSPDPropertyRoundTrip(t *testing.T) {
	f := func(seed uint64) bool {
		m := randomDense(10, 4, seed)
		g := gram(m)
		for i := 0; i < 4; i++ {
			g.Set(i, i, g.At(i, i)+0.5)
		}
		b := randomDense(4, 3, seed+1)
		x := NewDense(4, 3)
		if err := SolveSPDInto(x, g, b, nil); err != nil {
			return false
		}
		return mul(g, x).MaxDiff(b) < 1e-8
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestFillCopyFromString(t *testing.T) {
	a := NewDense(2, 3)
	a.Fill(4.5)
	if a.At(1, 2) != 4.5 {
		t.Fatal("Fill wrong")
	}
	b := NewDense(2, 3)
	b.CopyFrom(a)
	if !b.Equal(a, 0) {
		t.Fatal("CopyFrom wrong")
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("CopyFrom shape mismatch did not panic")
			}
		}()
		NewDense(3, 2).CopyFrom(a)
	}()
	if s := a.String(); len(s) == 0 {
		t.Fatal("String empty")
	}
	big := NewDense(50, 50)
	if s := big.String(); s != "Dense{50x50}" {
		t.Fatalf("large String = %q", s)
	}
}

func TestEqualShapeMismatch(t *testing.T) {
	if NewDense(2, 2).Equal(NewDense(2, 3), 1) {
		t.Fatal("different shapes reported equal")
	}
}

func TestNewDensePanicsNegative(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("negative dims did not panic")
		}
	}()
	NewDense(-1, 2)
}
