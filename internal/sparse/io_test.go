package sparse

import (
	"bytes"
	"io"
	"strings"
	"testing"

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
		"wrong flavor":      "%%MatrixMarket matrix array real general\n2 2\n1\n2\n3\n4\n",
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
