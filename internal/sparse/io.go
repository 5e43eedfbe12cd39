package sparse

import (
	"bufio"
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

// maxIndexLen caps rows + cols of a coordinate file; see
// ReadMatrixMarket.
const maxIndexLen = 1 << 28

// ReadMatrixMarket parses a MatrixMarket coordinate-format matrix.
// Only the "matrix coordinate real general" flavor is supported, and
// every value must be finite. The size line is checked before any
// entry is read, and entries are collected as they are read, so the
// declared entry count reserves no memory, and an entry past that
// count is refused before the rest of the input is read. The declared
// shape does reserve memory: the CSR's row pointers and
// construction's counting sorts are index arrays of rows+1 and cols+1
// ints, whatever the entries. So a size line whose rows + cols
// exceeds 2^28 (2 GiB per index array) is refused.
func ReadMatrixMarket(r io.Reader) (*CSR, error) {
	var r64, c64, nnz int64
	sc, err := mat.ScanMatrixMarket(r, "coordinate", &r64, &c64, &nnz)
	if err != nil {
		return nil, err
	}
	rows, cols, err := mat.CheckDims(r64, c64)
	if err != nil {
		return nil, err
	}
	if r64+c64 > maxIndexLen {
		return nil, fmt.Errorf("sparse: %dx%d needs index arrays of %d entries, over the %d this reader allows", rows, cols, r64+c64, maxIndexLen)
	}
	if nnz < 0 || nnz > r64*c64 {
		return nil, fmt.Errorf("sparse: %d entries declared for a %dx%d matrix", nnz, rows, cols)
	}
	var coords []Coord
	for line, ok := mat.MatrixMarketLine(sc); ok; line, ok = mat.MatrixMarketLine(sc) {
		fields := strings.Fields(line)
		if len(fields) < 2 {
			return nil, fmt.Errorf("sparse: bad entry line %q", line)
		}
		i, err := strconv.Atoi(fields[0])
		if err != nil {
			return nil, fmt.Errorf("sparse: bad row index %q: %w", fields[0], err)
		}
		j, err := strconv.Atoi(fields[1])
		if err != nil {
			return nil, fmt.Errorf("sparse: bad col index %q: %w", fields[1], err)
		}
		v := 1.0
		if len(fields) >= 3 {
			if v, err = strconv.ParseFloat(fields[2], 64); err != nil || math.IsNaN(v) || math.IsInf(v, 0) {
				return nil, fmt.Errorf("sparse: bad value %q: want a finite number", fields[2])
			}
		}
		if i < 1 || i > rows || j < 1 || j > cols {
			return nil, fmt.Errorf("sparse: entry (%d,%d) outside declared %dx%d", i, j, rows, cols)
		}
		if int64(len(coords)) == nnz {
			return nil, fmt.Errorf("sparse: more than the %d declared entries", nnz)
		}
		coords = append(coords, Coord{Row: i - 1, Col: j - 1, Val: v})
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if int64(len(coords)) != nnz {
		return nil, fmt.Errorf("sparse: declared %d entries, found %d", nnz, len(coords))
	}
	return FromCoords(rows, cols, coords), nil
}
