package sparse

import (
	"sort"
	"testing"

	"hpcnmf/internal/mat"
	"hpcnmf/internal/par"
	"hpcnmf/internal/rng"
)

// refFromCoords is the comparison-sort construction the counting-sort
// FromCoords replaced; kept here as the differential reference.
func refFromCoords(rows, cols int, entries []Coord) *CSR {
	sorted := make([]Coord, len(entries))
	copy(sorted, entries)
	sort.SliceStable(sorted, func(i, j int) bool {
		if sorted[i].Row != sorted[j].Row {
			return sorted[i].Row < sorted[j].Row
		}
		return sorted[i].Col < sorted[j].Col
	})
	a := &CSR{Rows: rows, Cols: cols, RowPtr: make([]int, rows+1)}
	for i := 0; i < len(sorted); {
		j := i + 1
		v := sorted[i].Val
		for j < len(sorted) && sorted[j].Row == sorted[i].Row && sorted[j].Col == sorted[i].Col {
			v += sorted[j].Val
			j++
		}
		a.ColIdx = append(a.ColIdx, sorted[i].Col)
		a.Val = append(a.Val, v)
		a.RowPtr[sorted[i].Row+1]++
		i = j
	}
	for i := 0; i < rows; i++ {
		a.RowPtr[i+1] += a.RowPtr[i]
	}
	return a
}

// TestFromCoordsDuplicatesAndZeros pins the counting-sort semantics:
// duplicates are summed in input order (including duplicates that
// cancel to zero), explicit zeros are kept, and rows end up
// column-sorted from arbitrarily shuffled input.
func TestFromCoordsDuplicatesAndZeros(t *testing.T) {
	entries := []Coord{
		{Row: 2, Col: 3, Val: 5},
		{Row: 0, Col: 1, Val: 0}, // explicit zero, must be stored
		{Row: 2, Col: 0, Val: 1},
		{Row: 2, Col: 3, Val: -5}, // cancels the first entry to zero
		{Row: 1, Col: 2, Val: 2},
		{Row: 1, Col: 2, Val: 3}, // duplicate, sums to 5
		{Row: 0, Col: 4, Val: 7},
	}
	a := FromCoords(3, 5, entries)
	if a.NNZ() != 5 {
		t.Fatalf("NNZ = %d, want 5 (duplicates collapsed, zeros kept)", a.NNZ())
	}
	if v := a.At(2, 3); v != 0 {
		t.Errorf("cancelled duplicate at (2,3) = %g, want stored 0", v)
	}
	if got := a.RowPtr[3] - a.RowPtr[2]; got != 2 {
		t.Errorf("row 2 has %d stored entries, want 2 (incl. cancelled)", got)
	}
	if v := a.At(0, 1); v != 0 || a.RowPtr[1] != 2 {
		t.Errorf("explicit zero at (0,1) not stored: val %g, row nnz %d", v, a.RowPtr[1])
	}
	if v := a.At(1, 2); v != 5 {
		t.Errorf("duplicate sum at (1,2) = %g, want 5", v)
	}
	for i := 0; i < a.Rows; i++ {
		cols := a.ColIdx[a.RowPtr[i]:a.RowPtr[i+1]]
		if !sort.IntsAreSorted(cols) {
			t.Errorf("row %d columns not sorted: %v", i, cols)
		}
	}
}

// TestFromCoordsMatchesSortReference cross-checks the counting sort
// against the comparison-sort construction on random shuffled
// coordinate sets with many duplicates.
func TestFromCoordsMatchesSortReference(t *testing.T) {
	s := rng.New(31)
	for trial := 0; trial < 25; trial++ {
		rows := int(s.Uint64()%20) + 1
		cols := int(s.Uint64()%20) + 1
		n := int(s.Uint64() % 200)
		entries := make([]Coord, n)
		for i := range entries {
			entries[i] = Coord{
				Row: int(s.Uint64() % uint64(rows)),
				Col: int(s.Uint64() % uint64(cols)),
				Val: 2*s.Float64() - 1,
			}
		}
		got := FromCoords(rows, cols, entries)
		want := refFromCoords(rows, cols, entries)
		if !got.Equal(want, 0) {
			t.Fatalf("trial %d (%dx%d, %d entries): counting sort differs from reference", trial, rows, cols, n)
		}
	}
	// Empty input.
	if e := FromCoords(4, 4, nil); e.NNZ() != 0 || len(e.RowPtr) != 5 {
		t.Errorf("empty FromCoords: nnz %d rowptr %v", e.NNZ(), e.RowPtr)
	}
}

// TestMulBtToPoolMatchesSerial checks the row-partitioned parallel
// A·B kernel is bitwise identical to the serial one, including into a
// dirty (recycled) output buffer.
func TestMulBtToPoolMatchesSerial(t *testing.T) {
	pool := par.NewPool(4)
	defer pool.Close()
	s := rng.New(77)
	for trial := 0; trial < 10; trial++ {
		m := int(s.Uint64()%300) + 1
		n := int(s.Uint64()%200) + 1
		k := int(s.Uint64()%20) + 1
		a := RandomER(m, n, 0.08, s)
		b := randomDense(n, k, 1000+uint64(trial))
		want := mat.NewDense(m, k)
		a.MulBtTo(want, b, nil)
		got := mat.NewDense(m, k)
		got.Fill(999) // dirty buffer: the kernel must overwrite fully
		a.MulBtTo(got, b, pool)
		if d := want.MaxDiff(got); d != 0 {
			t.Fatalf("trial %d (%dx%d nnz=%d): pooled MulBtTo differs by %g", trial, m, n, a.NNZ(), d)
		}
	}
}

// TestMulWtAToPoolMatchesSerial checks the column-windowed parallel
// Wᵀ·A kernel against the serial one, bitwise.
func TestMulWtAToPoolMatchesSerial(t *testing.T) {
	pool := par.NewPool(4)
	defer pool.Close()
	s := rng.New(78)
	for trial := 0; trial < 10; trial++ {
		m := int(s.Uint64()%300) + 1
		n := int(s.Uint64()%260) + 1
		k := int(s.Uint64()%20) + 1
		a := RandomER(m, n, 0.08, s)
		w := randomDense(m, k, 2000+uint64(trial))
		want := mat.NewDense(k, n)
		a.MulWtAToWS(want, w, nil, nil)
		got := mat.NewDense(k, n)
		got.Fill(999)
		a.MulWtAToWS(got, w, pool, nil)
		if d := want.MaxDiff(got); d != 0 {
			t.Fatalf("trial %d (%dx%d nnz=%d): pooled MulWtATo differs by %g", trial, m, n, a.NNZ(), d)
		}
	}
	// Degenerate shapes.
	empty := FromCoords(3, 4, nil)
	c := mat.NewDense(2, 4)
	empty.MulWtAToWS(c, randomDense(3, 2, 5), nil, nil)
	if c.MaxDiff(mat.NewDense(2, 4)) != 0 {
		t.Error("empty-matrix MulWtATo must zero the output")
	}
}
