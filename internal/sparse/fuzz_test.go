package sparse

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

// FuzzReadMatrixMarket hardens the parser: arbitrary input must yield
// a clean error or a structurally valid matrix that had a size line,
// never a panic; a symmetric file must give a symmetric matrix; and
// valid matrices must survive a write/read round trip.
func FuzzReadMatrixMarket(f *testing.F) {
	f.Add("%%MatrixMarket matrix coordinate real general\n2 2 1\n1 1 1.0\n")
	f.Add("%%MatrixMarket matrix coordinate real general\n3 4 2\n1 2 0.5\n3 4 -1e3\n")
	f.Add("%%MatrixMarket matrix coordinate real general\n% comment\n1 1 0\n")
	f.Add("")
	f.Add("garbage\n1 1 1\n")
	f.Add("%%MatrixMarket matrix coordinate real general\n1 1 1\n1 1\n")
	f.Add("%%MatrixMarket matrix coordinate real general\n3 3 -1\n")
	f.Add("%%MatrixMarket matrix coordinate real general\n-2 3 0\n")
	f.Add("%%MatrixMarket matrix coordinate real general\n% no size line\n")
	f.Add("%%MatrixMarket matrix coordinate real general\n4294967296 4294967297 0\n")
	f.Add("%%MatrixMarket matrix coordinate real general\n1099511627776 1 0\n")
	f.Add("%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 NaN\n2 2 1\n")
	f.Add("%%MatrixMarket matrix coordinate real general\n2 2 1\n2 1 -Infinity\n")
	f.Add("%%MatrixMarket matrix coordinate real symmetric\n3 3 3\n1 1 2\n3 1 -1.5\n3 2 4\n")
	f.Add("%%MatrixMarket matrix array real general\n2 3\n1\n0\n-2.5\n4\n0\n6\n")
	f.Add("%%MatrixMarket matrix coordinate integer general\n2 2 2\n1 1 -4\n2 1 1.5\n")
	f.Add("%%MatrixMarket matrix coordinate integer symmetric\n2 2 2\n1 1 +7\n2 1 1e3\n")
	f.Fuzz(func(t *testing.T, input string) {
		a, err := ReadMatrixMarket(strings.NewReader(input))
		if err != nil {
			return
		}
		if !hasSizeLine(input) {
			t.Fatalf("accepted %q, which has no size line", input)
		}
		// Structural invariants of anything accepted.
		if len(a.RowPtr) != a.Rows+1 || a.RowPtr[a.Rows] != a.NNZ() {
			t.Fatalf("invalid CSR from input %q", input)
		}
		for _, c := range a.ColIdx {
			if c < 0 || c >= a.Cols {
				t.Fatalf("column %d out of range from %q", c, input)
			}
		}
		for _, v := range a.Val {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("value %v accepted from %q", v, input)
			}
		}
		checkInteger(t, input, a)
		if banner(input)[4] == "symmetric" {
			for i := 0; i < a.Rows; i++ {
				for p := a.RowPtr[i]; p < a.RowPtr[i+1]; p++ {
					if j := a.ColIdx[p]; a.At(j, i) != a.Val[p] {
						t.Fatalf("A[%d][%d] = %g but A[%d][%d] = %g from symmetric %q", i, j, a.Val[p], j, i, a.At(j, i), input)
					}
				}
			}
		}
		// Round trip.
		var buf bytes.Buffer
		if err := a.WriteMatrixMarket(&buf); err != nil {
			t.Fatal(err)
		}
		b, err := ReadMatrixMarket(&buf)
		if err != nil {
			t.Fatalf("round trip of accepted input failed: %v", err)
		}
		if !a.Equal(b, 0) {
			t.Fatal("round trip changed matrix")
		}
	})
}

// FuzzReadMatrixMarketArray hardens the reader on array files: an
// accepted one stores every entry of its shape, each finite, and had
// a size line.
func FuzzReadMatrixMarketArray(f *testing.F) {
	f.Add("%%MatrixMarket matrix array real general\n2 2\n1\n2\n3\n4\n")
	f.Add("%%MatrixMarket matrix array real general\n0 0\n")
	f.Add("")
	f.Add("%%MatrixMarket matrix array real general\n1 2\n1\n")
	f.Add("%%MatrixMarket matrix array real general\n% no size line\n")
	f.Add("%%MatrixMarket matrix array real general\n4294967296 4294967297\n")
	f.Add("%%MatrixMarket matrix array real general\n1 2\n1\nnan\n")
	f.Add("%%MatrixMarket matrix array real general\n1 1\n+Inf\n")
	f.Add("%%MatrixMarket matrix array integer general\n1 2\n3\n-0.5\n")
	f.Add("%%MatrixMarket matrix array integer general\n1 1\n2E1\n")
	f.Fuzz(func(t *testing.T, input string) {
		a, err := ReadMatrixMarket(strings.NewReader(input))
		if err != nil {
			return
		}
		if !hasSizeLine(input) {
			t.Fatalf("accepted %q, which has no size line", input)
		}
		if banner(input)[2] == "array" && a.NNZ() != a.Rows*a.Cols {
			t.Fatalf("array file %q stored %d of %d entries", input, a.NNZ(), a.Rows*a.Cols)
		}
		for _, v := range a.Val {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("accepted %q, which holds a non-finite value", input)
			}
		}
		checkInteger(t, input, a)
	})
}

// checkInteger fails t unless every value of a, read from input, is a
// whole number when input's banner declares an integer file.
func checkInteger(t *testing.T, input string, a *CSR) {
	if banner(input)[3] != "integer" {
		return
	}
	for _, v := range a.Val {
		if v != math.Trunc(v) {
			t.Fatalf("integer file %q gave the value %v", input, v)
		}
	}
}

// banner returns the five lower-cased tokens of a MatrixMarket
// input's first line, all empty unless it has exactly five.
func banner(input string) [5]string {
	var tok [5]string
	first, _, _ := strings.Cut(input, "\n")
	if f := strings.Fields(strings.ToLower(first)); len(f) == len(tok) {
		copy(tok[:], f)
	}
	return tok
}

// hasSizeLine reports whether some line after the first of a
// MatrixMarket input is neither blank nor a comment: the size line an
// accepted input must have.
func hasSizeLine(input string) bool {
	_, body, _ := strings.Cut(input, "\n")
	for _, line := range strings.Split(body, "\n") {
		if line = strings.TrimSpace(line); line != "" && !strings.HasPrefix(line, "%") {
			return true
		}
	}
	return false
}
