package sparse

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

// FuzzReadMatrixMarket hardens the parser: arbitrary input must yield
// a clean error or a structurally valid matrix that had a size line,
// never a panic, and valid matrices must survive a write/read round
// trip.
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
