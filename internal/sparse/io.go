package sparse

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"

	"hpcnmf/internal/mat"
)

// WriteMatrixMarket writes the matrix in MatrixMarket coordinate
// format (1-based indices, "%%MatrixMarket matrix coordinate real
// general" header), the interchange format the sparse-NMF community
// uses for datasets like Webbase.
func (a *CSR) WriteMatrixMarket(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "%%%%MatrixMarket matrix coordinate real general\n%d %d %d\n", a.Rows, a.Cols, a.NNZ()); err != nil {
		return err
	}
	for i := 0; i < a.Rows; i++ {
		for p := a.RowPtr[i]; p < a.RowPtr[i+1]; p++ {
			if _, err := fmt.Fprintf(bw, "%d %d %.17g\n", i+1, a.ColIdx[p]+1, a.Val[p]); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// maxIndexLen caps rows + cols of a MatrixMarket file; see
// ReadMatrixMarket.
const maxIndexLen = 1 << 28

// ReadMatrixMarket parses a MatrixMarket matrix; it is the only reader
// of the format. The banner (in any letter case) must be one of
//
//	%%MatrixMarket matrix coordinate {real|integer|pattern} {general|symmetric}
//	%%MatrixMarket matrix array {real|integer} general
//
// and any other (complex, hermitian, skew-symmetric, vector, ...) is
// refused. The size line holds rows, cols and the entry count of a
// coordinate file, rows and cols of an array file. Each entry line
// holds exactly the fields its banner implies: row, col and value;
// row and col of a pattern file, whose entries are ones; the value
// alone of an array file, which lists its entries column by column and
// comes back with every one stored, zeros included, so ToDense gives
// the matrix exactly. A symmetric file is square and lists its lower
// triangle: an off-diagonal entry also stands for its mirror, and one
// above the diagonal is refused. Every value must be finite, and a
// value of an integer file an optional sign followed by decimal
// digits.
//
// The size line is checked before any entry is read, and entries are
// collected as they are read, so the declared entry count reserves no
// memory, and an entry line past that count is refused before the
// rest of the input is read. The declared shape does reserve memory:
// the CSR's row pointers and construction's counting sorts are index
// arrays of rows+1 and cols+1 ints, whatever the entries. So a size
// line whose rows + cols exceeds 2^28 (2 GiB per index array) is
// refused.
func ReadMatrixMarket(r io.Reader) (*CSR, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	if !sc.Scan() {
		if err := sc.Err(); err != nil {
			return nil, err
		}
		return nil, fmt.Errorf("sparse: empty MatrixMarket input")
	}
	banner := sc.Text()
	tok := strings.Fields(strings.ToLower(banner))
	if len(tok) != 5 || tok[0] != "%%matrixmarket" || tok[1] != "matrix" {
		return nil, fmt.Errorf("sparse: unsupported MatrixMarket banner %q", banner)
	}
	array, pattern, symmetric := tok[2] == "array", tok[3] == "pattern", tok[4] == "symmetric"
	integer := tok[3] == "integer"
	numeric := tok[3] == "real" || integer
	if !(tok[2] == "coordinate" && (numeric || pattern) && (symmetric || tok[4] == "general") ||
		array && numeric && tok[4] == "general") {
		return nil, fmt.Errorf("sparse: unsupported MatrixMarket banner %q", banner)
	}

	n := 1 // the number of the line last read
	line, ok := nextLine(sc, &n)
	if !ok {
		if err := sc.Err(); err != nil {
			return nil, err
		}
		return nil, fmt.Errorf("sparse: MatrixMarket input has no size line")
	}
	size := strings.Fields(line)
	var dims [3]int64 // rows, cols, entry lines
	if len(size) != 3 && !array || len(size) != 2 && array {
		return nil, fmt.Errorf("sparse: bad size line %q for a %s file", line, tok[2])
	}
	for k, s := range size {
		var err error
		if dims[k], err = strconv.ParseInt(s, 10, 64); err != nil {
			return nil, fmt.Errorf("sparse: bad size line %q: %w", line, err)
		}
	}
	rows, cols, err := mat.CheckDims(dims[0], dims[1])
	if err != nil {
		return nil, err
	}
	if dims[0]+dims[1] > maxIndexLen {
		return nil, fmt.Errorf("sparse: %dx%d needs index arrays of %d entries, over the %d this reader allows", rows, cols, dims[0]+dims[1], maxIndexLen)
	}
	nnz := dims[2]
	if array {
		nnz = dims[0] * dims[1]
	}
	if nnz < 0 || nnz > dims[0]*dims[1] || symmetric && rows != cols {
		return nil, fmt.Errorf("sparse: size line %q does not fit a %s %s matrix", line, tok[2], tok[4])
	}

	// An entry line is idx index fields, then the value unless the file
	// is a pattern: width fields in all.
	idx, width := 2, 3
	switch {
	case array:
		idx, width = 0, 1
	case pattern:
		width = 2
	}
	var coords []Coord
	var lines int64
	for line, ok := nextLine(sc, &n); ok; line, ok = nextLine(sc, &n) {
		fields := strings.Fields(line)
		if len(fields) != width {
			return nil, fmt.Errorf("sparse: entry line %q has %d fields, want %d", line, len(fields), width)
		}
		if lines == nnz {
			return nil, fmt.Errorf("sparse: more than the %d declared entries", nnz)
		}
		i, j := int(lines%dims[0]), int(lines/dims[0]) // array order: down each column
		if !array {
			var jerr error
			i, err = strconv.Atoi(fields[0])
			j, jerr = strconv.Atoi(fields[1])
			if err != nil || jerr != nil || i < 1 || i > rows || j < 1 || j > cols {
				return nil, fmt.Errorf("sparse: entry line %q: want a row in 1..%d and a column in 1..%d", line, rows, cols)
			}
			i, j = i-1, j-1
		}
		v := 1.0 // a pattern entry is a one
		if len(fields) > idx {
			if integer {
				// Base 10 admits an optional sign and decimal digits; a
				// value past int64 is still an integer.
				if _, err := strconv.ParseInt(fields[idx], 10, 64); errors.Is(err, strconv.ErrSyntax) {
					return nil, fmt.Errorf("sparse: line %d: value %q of an integer file is not an integer", n, fields[idx])
				}
			}
			if v, err = strconv.ParseFloat(fields[idx], 64); err != nil || math.IsNaN(v) || math.IsInf(v, 0) {
				return nil, fmt.Errorf("sparse: line %d: bad value %q: want a finite number", n, fields[idx])
			}
		}
		if symmetric && i < j {
			return nil, fmt.Errorf("sparse: entry (%d,%d) is above the diagonal of a symmetric file", i+1, j+1)
		}
		coords = append(coords, Coord{Row: i, Col: j, Val: v})
		if symmetric && i != j {
			coords = append(coords, Coord{Row: j, Col: i, Val: v})
		}
		lines++
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if lines != nnz {
		return nil, fmt.Errorf("sparse: declared %d entries, found %d", nnz, lines)
	}
	return FromCoords(rows, cols, coords), nil
}

// nextLine returns the next line of sc that is neither blank nor a
// comment, trimmed, and false at the end of the input. It counts the
// lines it reads in *n.
func nextLine(sc *bufio.Scanner, n *int) (string, bool) {
	for sc.Scan() {
		*n++
		if line := strings.TrimSpace(sc.Text()); line != "" && !strings.HasPrefix(line, "%") {
			return line, true
		}
	}
	return "", false
}
