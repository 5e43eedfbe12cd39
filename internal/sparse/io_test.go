package sparse

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"strings"
	"testing"

	"hpcnmf/internal/mat"
	"hpcnmf/internal/rng"
)

func TestMatrixMarketCSRRoundTrip(t *testing.T) {
	a := RandomER(17, 11, 0.2, rng.New(31))
	var buf bytes.Buffer
	if err := a.WriteMatrixMarket(&buf); err != nil {
		t.Fatal(err)
	}
	b, err := ReadMatrixMarket(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if b.Rows != a.Rows || b.Cols != a.Cols || b.NNZ() != a.NNZ() {
		t.Fatalf("shape changed: %dx%d nnz=%d -> %dx%d nnz=%d",
			a.Rows, a.Cols, a.NNZ(), b.Rows, b.Cols, b.NNZ())
	}
	for i := range a.RowPtr {
		if a.RowPtr[i] != b.RowPtr[i] {
			t.Fatalf("RowPtr[%d] changed", i)
		}
	}
	for p := range a.Val {
		if a.ColIdx[p] != b.ColIdx[p] || a.Val[p] != b.Val[p] {
			t.Fatalf("entry %d changed: (%d, %g) -> (%d, %g)",
				p, a.ColIdx[p], a.Val[p], b.ColIdx[p], b.Val[p])
		}
	}
}

func TestMatrixMarketEmptyMatrixRoundTrip(t *testing.T) {
	a := FromCoords(5, 4, nil)
	var buf bytes.Buffer
	if err := a.WriteMatrixMarket(&buf); err != nil {
		t.Fatal(err)
	}
	b, err := ReadMatrixMarket(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if b.Rows != 5 || b.Cols != 4 || b.NNZ() != 0 {
		t.Fatalf("empty matrix became %dx%d nnz=%d", b.Rows, b.Cols, b.NNZ())
	}
}

func TestMatrixMarketRejectsCorruptInput(t *testing.T) {
	cases := map[string]string{
		"empty":             "",
		"junk header":       "hello world\n1 1 1\n1 1 1\n",
		"wrong flavor":      "%%MatrixMarket matrix array real symmetric\n2 2\n1\n2\n3\n4\n",
		"bad size line":     "%%MatrixMarket matrix coordinate real general\n2 x 1\n1 1 1\n",
		"bad row index":     "%%MatrixMarket matrix coordinate real general\n2 2 1\nx 1 1\n",
		"bad value":         "%%MatrixMarket matrix coordinate real general\n2 2 1\n1 1 zz\n",
		"row out of range":  "%%MatrixMarket matrix coordinate real general\n2 2 1\n3 1 1\n",
		"col out of range":  "%%MatrixMarket matrix coordinate real general\n2 2 1\n1 3 1\n",
		"zero-based index":  "%%MatrixMarket matrix coordinate real general\n2 2 1\n0 1 1\n",
		"short entry line":  "%%MatrixMarket matrix coordinate real general\n2 2 1\n1\n",
		"truncated entries": "%%MatrixMarket matrix coordinate real general\n3 3 5\n1 1 1\n2 2 2\n",
		"extra entries":     "%%MatrixMarket matrix coordinate real general\n2 2 1\n1 1 1\n2 2 2\n",
		"NaN value":         "%%MatrixMarket matrix coordinate real general\n2 2 1\n1 1 NaN\n",
		"infinite value":    "%%MatrixMarket matrix coordinate real general\n2 2 1\n1 1 -inf\n",
		// 2^40 × 1 passes mat.CheckDims; its row pointers alone are 8 TiB.
		"2^40 rows, no entries": "%%MatrixMarket matrix coordinate real general\n1099511627776 1 0\n",
	}
	for name, c := range cases {
		if _, err := ReadMatrixMarket(strings.NewReader(c)); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}

// countingReader serves a size line declaring one entry of a 2×2
// matrix, then entry lines without end, counting the bytes read.
type countingReader struct {
	head string
	read int64
}

func (r *countingReader) Read(p []byte) (int, error) {
	n := 0
	for n < len(p) {
		if r.head == "" {
			r.head = "1 1 1\n"
		}
		c := copy(p[n:], r.head)
		r.head = r.head[c:]
		n += c
	}
	r.read += int64(n)
	return n, nil
}

// TestMatrixMarketRefusesSurplusEntriesEarly: an entry past the
// declared count is refused where it stands, so a 1-entry file
// followed by megabytes of entry lines is neither read to its end nor
// held in memory.
func TestMatrixMarketRefusesSurplusEntriesEarly(t *testing.T) {
	r := &countingReader{head: "%%MatrixMarket matrix coordinate real general\n2 2 1\n"}
	const limit = 2 << 20
	if _, err := ReadMatrixMarket(io.LimitReader(r, 12<<20)); err == nil {
		t.Fatal("surplus entries accepted")
	}
	if r.read >= limit {
		t.Fatalf("read %d bytes before refusing, want < %d", r.read, limit)
	}
}

// arrayFile returns d as a MatrixMarket array file: its values column
// by column, each printed so that it parses back to the same bits.
func arrayFile(d *mat.Dense) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%%%%MatrixMarket matrix array real general\n%d %d\n", d.Rows, d.Cols)
	for j := 0; j < d.Cols; j++ {
		for i := 0; i < d.Rows; i++ {
			fmt.Fprintf(&b, "%.17g\n", d.At(i, j))
		}
	}
	return b.String()
}

// TestMatrixMarketArrayRoundTrip: an array file comes back with every
// entry stored, so ToDense gives the written matrix bit for bit,
// signed zeros included.
func TestMatrixMarketArrayRoundTrip(t *testing.T) {
	a := randomDense(6, 9, 23)
	a.Set(2, 3, 0)
	a.Set(4, 1, math.Copysign(0, -1))
	b, err := ReadMatrixMarket(strings.NewReader(arrayFile(a)))
	if err != nil {
		t.Fatal(err)
	}
	if b.NNZ() != 6*9 {
		t.Fatalf("array file stored %d of %d entries", b.NNZ(), 6*9)
	}
	for i, v := range b.ToDense().Data {
		if math.Float64bits(v) != math.Float64bits(a.Data[i]) {
			t.Fatalf("entry %d: got %g, want %g", i, v, a.Data[i])
		}
	}
}

func TestMatrixMarketArrayRejects(t *testing.T) {
	cases := []string{
		"junk",
		"%%MatrixMarket matrix coordinate complex general\n1 1 1\n1 1 1 0\n", // wrong flavor
		"%%MatrixMarket matrix array real general\n2 2\n1\n2\n3\n",           // too few values
		"%%MatrixMarket matrix array real general\n1 1\n1\n2\n",              // too many
		"%%MatrixMarket matrix array real general\n1 1\nxyz\n",               // bad value
		"%%MatrixMarket matrix array real general\n1 2\n1\nNaN\n",            // not finite
		"%%MatrixMarket matrix array real general\n1 1\n-Inf\n",              // not finite
	}
	for i, c := range cases {
		if _, err := ReadMatrixMarket(strings.NewReader(c)); err == nil {
			t.Fatalf("case %d accepted", i)
		}
	}
}

// TestMatrixMarketGrammar holds the reader to the banners it accepts
// and to the fields each implies: a nil want means the input is
// refused, otherwise want is the 2×2 result, row-major.
func TestMatrixMarketGrammar(t *testing.T) {
	const mm = "%%MatrixMarket matrix "
	cases := []struct {
		name, input string
		want        []float64
	}{
		{"symmetric mirrored", mm + "coordinate real symmetric\n2 2 2\n1 1 4\n2 1 3\n", []float64{4, 3, 3, 0}},
		{"symmetric integer", mm + "coordinate integer symmetric\n2 2 1\n2 2 5\n", []float64{0, 0, 0, 5}},
		{"symmetric upper triangle", mm + "coordinate real symmetric\n2 2 1\n1 2 3\n", nil},
		{"symmetric not square", mm + "coordinate real symmetric\n2 3 1\n2 1 3\n", nil},
		{"complex", mm + "coordinate complex general\n2 2 1\n1 1 1 2\n", nil},
		{"hermitian", mm + "coordinate complex hermitian\n2 2 1\n2 1 1 2\n", nil},
		{"skew-symmetric", mm + "coordinate real skew-symmetric\n2 2 1\n2 1 3\n", nil},
		{"vector", "%%MatrixMarket vector coordinate real general\n2 2 1\n1 1 1\n", nil},
		{"array symmetric", mm + "array real symmetric\n2 2\n1\n2\n3\n", nil},
		{"array pattern", mm + "array pattern general\n2 2\n", nil},
		{"banner too long", mm + "coordinate real general extra\n2 2 1\n1 1 1\n", nil},
		{"real entry without value", mm + "coordinate real general\n2 2 1\n1 1\n", nil},
		{"entry with 4 fields", mm + "coordinate real general\n2 2 1\n1 1 1 1\n", nil},
		{"array entry with 2 fields", mm + "array real general\n2 2\n1 2\n3\n4\n", nil},
		{"array size line with 3 fields", mm + "array real general\n2 2 4\n1\n2\n3\n4\n", nil},
		{"coordinate size line with 2 fields", mm + "coordinate real general\n2 2\n1 1 1\n", nil},
		{"pattern", mm + "coordinate pattern general\n2 2 1\n2 1\n", []float64{0, 0, 1, 0}},
		{"pattern with a value", mm + "coordinate pattern general\n2 2 1\n2 1 7\n", nil},
		{"array", mm + "ARRAY Integer General\n2 2\n1\n0\n-0\n4\n", []float64{1, math.Copysign(0, -1), 0, 4}},
		{"integer signed", mm + "coordinate integer general\n2 2 2\n1 1 +3\n2 2 -12\n", []float64{3, 0, 0, -12}},
		{"integer fraction", mm + "coordinate integer general\n2 2 1\n1 1 1.5\n", nil},
		{"integer exponent", mm + "coordinate integer general\n2 2 1\n1 1 1e3\n", nil},
		{"integer whole fraction", mm + "coordinate integer general\n2 2 1\n1 1 2.0\n", nil},
		{"integer sign alone", mm + "coordinate integer general\n2 2 1\n1 1 -\n", nil},
		{"integer two signs", mm + "coordinate integer general\n2 2 1\n1 1 +-2\n", nil},
		{"integer hex", mm + "coordinate integer general\n2 2 1\n1 1 0x1p3\n", nil},
		{"integer array fraction", mm + "array integer general\n2 2\n1\n0.5\n3\n4\n", nil},
		{"integer array exponent", mm + "array integer general\n2 2\n1\n2\n1e3\n4\n", nil},
	}
	for _, c := range cases {
		a, err := ReadMatrixMarket(strings.NewReader(c.input))
		switch {
		case c.want == nil && err == nil:
			t.Errorf("%s: accepted", c.name)
		case c.want == nil:
		case err != nil:
			t.Errorf("%s: %v", c.name, err)
		case a.Rows != 2 || a.Cols != 2:
			t.Errorf("%s: got %dx%d, want 2x2", c.name, a.Rows, a.Cols)
		default:
			for i, v := range a.ToDense().Data {
				if math.Float64bits(v) != math.Float64bits(c.want[i]) {
					t.Errorf("%s: A[%d][%d] = %g, want %g", c.name, i/2, i%2, v, c.want[i])
				}
			}
		}
	}
}

// TestMatrixMarketIntegerValueNamesItsLine: a value of an integer file
// that is not an integer is refused with its line number.
func TestMatrixMarketIntegerValueNamesItsLine(t *testing.T) {
	input := "%%MatrixMarket matrix coordinate integer general\n% comment\n2 2 2\n1 1 7\n\n2 2 1.5\n"
	_, err := ReadMatrixMarket(strings.NewReader(input))
	if err == nil || !strings.Contains(err.Error(), "line 6:") {
		t.Fatalf("got %v, want an error naming line 6", err)
	}
}
