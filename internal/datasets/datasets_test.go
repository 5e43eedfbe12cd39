package datasets

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"

	"hpcnmf/internal/core"
	"hpcnmf/internal/mat"
)

func TestDSYNProperties(t *testing.T) {
	a := DSYN(100, 80, 1)
	if a.Rows != 100 || a.Cols != 80 {
		t.Fatalf("shape %dx%d", a.Rows, a.Cols)
	}
	if a.Min() < 0 {
		t.Fatal("DSYN has negative entries")
	}
	if !a.IsFinite() {
		t.Fatal("DSYN has non-finite entries")
	}
	// Mean of uniform(0,1)+noise clamped ≈ 0.5.
	sum := 0.0
	for _, v := range a.Data {
		sum += v
	}
	mean := sum / float64(len(a.Data))
	if mean < 0.4 || mean > 0.6 {
		t.Fatalf("DSYN mean %.3f implausible", mean)
	}
	b := DSYN(100, 80, 1)
	if !a.Equal(b, 0) {
		t.Fatal("DSYN not deterministic")
	}
	if DSYN(100, 80, 2).Equal(a, 1e-12) {
		t.Fatal("DSYN ignores seed")
	}
}

func TestSSYNProperties(t *testing.T) {
	a := SSYN(400, 300, 0.01, 2)
	want := 400 * 300 * 0.01
	if got := float64(a.NNZ()); got < want*0.7 || got > want*1.3 {
		t.Fatalf("SSYN nnz %v, expected ~%v", got, want)
	}
	for _, v := range a.Val {
		if v < 0 || v >= 1 {
			t.Fatal("SSYN value out of range")
		}
	}
}

func TestVideoStructure(t *testing.T) {
	spec := VideoSpec{Width: 16, Height: 12, Frames: 30, Blobs: 2, Noise: 0.01}
	a := Video(spec, 3)
	m := 16 * 12 * 3
	if a.Rows != m || a.Cols != 30 {
		t.Fatalf("shape %dx%d, want %dx%d", a.Rows, a.Cols, m, 30)
	}
	if a.Min() < 0 || slices.Max(a.Data) > 1 {
		t.Fatalf("pixel range [%v, %v] outside [0,1]", a.Min(), slices.Max(a.Data))
	}
	// The scene must actually move: consecutive frames differ by more
	// than noise alone, and the background keeps them correlated.
	f0 := a.SubmatrixCols(0, 1)
	f1 := a.SubmatrixCols(1, 2)
	f15 := a.SubmatrixCols(15, 16)
	d01 := frameDist(f0, f1)
	d015 := frameDist(f0, f15)
	if d01 == 0 {
		t.Fatal("consecutive frames identical: nothing moves")
	}
	if d015 < d01 {
		t.Fatal("distant frames closer than consecutive ones: no coherent motion")
	}
	// Background dominance: most pixels unchanged between frames
	// (this is what makes rank-k background subtraction work).
	changed := 0
	for i := range f0.Data {
		if diff := f0.Data[i] - f1.Data[i]; diff > 0.2 || diff < -0.2 {
			changed++
		}
	}
	if changed > len(f0.Data)/4 {
		t.Fatalf("%d/%d pixels changed >0.2 between frames: background not static", changed, len(f0.Data))
	}
}

func frameDist(a, b *mat.Dense) float64 {
	d := a.Clone()
	for i, v := range b.Data {
		d.Data[i] -= v
	}
	return math.Sqrt(d.SquaredFrobeniusNorm())
}

func TestVideoTallSkinny(t *testing.T) {
	spec := DefaultVideo()
	a := Video(spec, 4)
	if a.Rows <= 10*a.Cols {
		t.Fatalf("video matrix %dx%d is not tall-skinny", a.Rows, a.Cols)
	}
}

func TestWebbaseShape(t *testing.T) {
	a := Webbase(500, 3, 5)
	if a.Rows != 500 || a.Cols != 500 {
		t.Fatalf("shape %dx%d", a.Rows, a.Cols)
	}
	if a.NNZ() == 0 {
		t.Fatal("empty graph")
	}
}

func TestByName(t *testing.T) {
	for _, name := range Names() {
		ds, err := ByName(name, 0.05, 7)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		m, n := ds.Matrix.Dims()
		if m < 8 || n < 8 {
			t.Fatalf("%s: dims %dx%d too small", name, m, n)
		}
		if _, sparse := core.UnwrapSparse(ds.Matrix); sparse != (name == "ssyn" || name == "webbase") {
			t.Fatalf("%s: sparse = %v", name, sparse)
		}
	}
	if _, err := ByName("nope", 1, 0); err == nil {
		t.Fatal("unknown dataset accepted")
	}
}

// TestByNameRefusesNonFiniteScale: a NaN or ±Inf scale is an error
// naming the value, not an 8×8 matrix or the default size.
func TestByNameRefusesNonFiniteScale(t *testing.T) {
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		_, err := ByName("ssyn", Scale(v), 1)
		if err == nil || !strings.Contains(err.Error(), fmt.Sprint(v)) {
			t.Errorf("scale %v: err = %v, want one naming the value", v, err)
		}
	}
}

// TestByNameRefusesOverflowingScale: a finite scale whose largest
// dimension overflows an int is an error naming the value, not an 8×8
// matrix. The check's edge sits at maxBaseDim·scale = MaxInt.
func TestByNameRefusesOverflowingScale(t *testing.T) {
	_, err := ByName("dsyn", 1e30, 1)
	if err == nil || !strings.Contains(err.Error(), "1e+30") {
		t.Errorf("scale 1e30: err = %v, want one naming the value", err)
	}
	const edge = math.MaxInt / maxBaseDim
	if err := Scale(2 * edge).Check(); err == nil {
		t.Errorf("scale %v passed the check", float64(2*edge))
	}
	if err := Scale(edge / 2).Check(); err != nil {
		t.Errorf("scale %v: %v", float64(edge/2), err)
	}
}

func TestByNameVideoIsTallest(t *testing.T) {
	ds, err := ByName("video", 0.25, 1)
	if err != nil {
		t.Fatal(err)
	}
	m, n := ds.Matrix.Dims()
	if m <= n {
		t.Fatalf("video dataset %dx%d not tall", m, n)
	}
}

func TestBagOfWordsStructure(t *testing.T) {
	spec := BagOfWordsSpec{Vocab: 300, Docs: 120, Topics: 3, DocLen: 80}
	a := BagOfWords(spec, 7)
	if a.Rows != 300 || a.Cols != 120 {
		t.Fatalf("shape %dx%d", a.Rows, a.Cols)
	}
	// Column sums equal DocLen (every token lands somewhere).
	colSums := make([]float64, 120)
	for i := 0; i < a.Rows; i++ {
		for p := a.RowPtr[i]; p < a.RowPtr[i+1]; p++ {
			colSums[a.ColIdx[p]] += a.Val[p]
		}
	}
	for d, s := range colSums {
		if s != 80 {
			t.Fatalf("document %d has %v tokens, want 80", d, s)
		}
	}
	// Topic structure: a document's mass should concentrate in its
	// planted topic's vocabulary slice (90% minus noise).
	for _, d := range []int{0, 60, 119} {
		topic := d * 3 / 120
		inSlice := 0.0
		for i := topic * 100; i < (topic+1)*100; i++ {
			inSlice += a.At(i, d)
		}
		if inSlice < 0.7*80 {
			t.Fatalf("document %d has only %v/80 tokens in its topic slice", d, inSlice)
		}
	}
	// Zipf skew: within a topic slice, the top word should be much
	// more frequent than the median word.
	rowSums := make([]float64, 300)
	for i := 0; i < a.Rows; i++ {
		for p := a.RowPtr[i]; p < a.RowPtr[i+1]; p++ {
			rowSums[i] += a.Val[p]
		}
	}
	maxRow, midRow := 0.0, rowSums[50]
	for i := 0; i < 100; i++ {
		if rowSums[i] > maxRow {
			maxRow = rowSums[i]
		}
	}
	if maxRow < 3*midRow {
		t.Fatalf("no Zipf skew: max %v vs mid-rank %v", maxRow, midRow)
	}
}

func TestBagOfWordsNMFRecovery(t *testing.T) {
	// End-to-end: NMF on the generated corpus recovers the planted
	// topics (dominant H component matches the planted topic).
	spec := BagOfWordsSpec{Vocab: 200, Docs: 90, Topics: 3, DocLen: 60}
	a := BagOfWords(spec, 11)
	res, err := core.RunParallelAuto(core.WrapSparse(a), 4, core.Options{K: 3, MaxIter: 15, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	correct := 0
	perm := map[int]int{}
	for d := 0; d < 90; d++ {
		best, bestV := 0, -1.0
		for t := 0; t < 3; t++ {
			if v := res.H.At(t, d); v > bestV {
				best, bestV = t, v
			}
		}
		planted := d * 3 / 90
		if got, ok := perm[best]; ok {
			if got == planted {
				correct++
			}
		} else {
			perm[best] = planted
			correct++
		}
	}
	if acc := float64(correct) / 90; acc < 0.85 {
		t.Fatalf("topic recovery %.2f < 0.85", acc)
	}
}

func TestByNameBagOfWords(t *testing.T) {
	ds, err := ByName("bow", 0.05, 3)
	if err != nil {
		t.Fatal(err)
	}
	if _, sparse := core.UnwrapSparse(ds.Matrix); !sparse || ds.Name != "BagOfWords" {
		t.Fatalf("bow dataset malformed: %+v", ds)
	}
	if ds.Matrix.NNZ() == 0 {
		t.Fatal("empty corpus")
	}
}
