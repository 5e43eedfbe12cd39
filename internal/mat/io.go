package mat

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
)

// binaryMagic identifies the library's dense binary format.
const binaryMagic = "HPNMFD01"

// BlockHeaderSize is the length of a binary block's header: the magic,
// then rows and cols as little-endian int64s.
const BlockHeaderSize = len(binaryMagic) + 16

// AppendBlockHeader appends the header of a rows×cols binary block to
// b. The row-major little-endian float64 payload follows it.
func AppendBlockHeader(b []byte, rows, cols int) []byte {
	b = binary.LittleEndian.AppendUint64(append(b, binaryMagic...), uint64(rows))
	return binary.LittleEndian.AppendUint64(b, uint64(cols))
}

// ParseBlockHeader checks the block header at the front of b — the
// magic, then the dims through CheckDims — and returns the dims.
func ParseBlockHeader(b []byte) (rows, cols int, err error) {
	if len(b) < BlockHeaderSize {
		return 0, 0, fmt.Errorf("mat: block header truncated at %d of %d bytes", len(b), BlockHeaderSize)
	}
	if string(b[:len(binaryMagic)]) != binaryMagic {
		return 0, 0, fmt.Errorf("mat: bad magic %q", b[:len(binaryMagic)])
	}
	return CheckDims(int64(binary.LittleEndian.Uint64(b[8:])), int64(binary.LittleEndian.Uint64(b[16:])))
}

// WriteBinary writes the matrix in a compact little-endian binary
// format (magic, rows, cols, row-major float64 data): the block format
// every store container holds.
func (a *Dense) WriteBinary(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.Write(AppendBlockHeader(nil, a.Rows, a.Cols)); err != nil {
		return err
	}
	if err := binary.Write(bw, binary.LittleEndian, a.Data); err != nil {
		return err
	}
	return bw.Flush()
}

// CheckDims refuses a declared rows×cols shape that is negative, over
// 2^40 elements (8 TiB of float64) or past the platform int, and
// returns it as ints. The arithmetic stays in int64, so a hostile size
// cannot wrap rows*cols into a small positive int before it is tested.
// The binary and MatrixMarket readers apply it before they read a
// value.
func CheckDims(r64, c64 int64) (rows, cols int, err error) {
	const maxElements = int64(1) << 40
	if r64 < 0 || c64 < 0 || (c64 != 0 && r64 > maxElements/c64) {
		return 0, 0, fmt.Errorf("mat: implausible dims %dx%d", r64, c64)
	}
	if total := r64 * c64; max(r64, c64, total) > int64(^uint(0)>>1) {
		return 0, 0, fmt.Errorf("mat: %dx%d matrix (%d elements) does not fit this platform's int", r64, c64, total)
	}
	return int(r64), int(c64), nil
}

// ReadBinary parses a matrix written by WriteBinary, leaving any
// bytes that follow it unread (checkpoints concatenate two factors in
// one stream).
func ReadBinary(r io.Reader) (*Dense, error) {
	br := bufio.NewReader(r)
	var hdr [BlockHeaderSize]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return nil, fmt.Errorf("mat: reading header: %w", err)
	}
	rows, cols, err := ParseBlockHeader(hdr[:])
	if err != nil {
		return nil, err
	}
	// Read incrementally so a corrupt header cannot force a huge
	// allocation before any data has been validated: memory grows
	// only as actual payload arrives.
	total := rows * cols
	data := make([]float64, 0, min(total, 1<<16))
	chunk := make([]float64, 1<<16)
	for len(data) < total {
		n := min(total-len(data), len(chunk))
		if err := binary.Read(br, binary.LittleEndian, chunk[:n]); err != nil {
			return nil, fmt.Errorf("mat: reading data at element %d of %d: %w", len(data), total, err)
		}
		data = append(data, chunk[:n]...)
	}
	return &Dense{Rows: rows, Cols: cols, Data: data}, nil
}

// WriteMatrixMarket writes the matrix in MatrixMarket array format
// (column-major, per the specification).
func (a *Dense) WriteMatrixMarket(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "%%%%MatrixMarket matrix array real general\n%d %d\n", a.Rows, a.Cols); err != nil {
		return err
	}
	for j := 0; j < a.Cols; j++ {
		for i := 0; i < a.Rows; i++ {
			if _, err := fmt.Fprintf(bw, "%.17g\n", a.At(i, j)); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// ScanMatrixMarket checks that r opens with a MatrixMarket header of
// the given format ("array" or "coordinate"), reads the size line that
// follows into sizes, and returns the scanner positioned after it. A
// missing or malformed size line is an error.
func ScanMatrixMarket(r io.Reader, format string, sizes ...any) (*bufio.Scanner, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	if !sc.Scan() {
		return nil, fmt.Errorf("mat: empty MatrixMarket input")
	}
	header := strings.ToLower(sc.Text())
	if !strings.HasPrefix(header, "%%matrixmarket") || !strings.Contains(header, format) {
		return nil, fmt.Errorf("mat: unsupported MatrixMarket header %q", sc.Text())
	}
	line, ok := MatrixMarketLine(sc)
	if !ok {
		if err := sc.Err(); err != nil {
			return nil, err
		}
		return nil, fmt.Errorf("mat: MatrixMarket input has no size line")
	}
	if _, err := fmt.Sscan(line, sizes...); err != nil {
		return nil, fmt.Errorf("mat: bad size line %q: %w", line, err)
	}
	return sc, nil
}

// MatrixMarketLine returns the next line of sc that is neither blank
// nor a comment, trimmed, and false at the end of the input.
func MatrixMarketLine(sc *bufio.Scanner) (string, bool) {
	for sc.Scan() {
		if line := strings.TrimSpace(sc.Text()); line != "" && !strings.HasPrefix(line, "%") {
			return line, true
		}
	}
	return "", false
}

// ReadMatrixMarketArray parses a MatrixMarket array-format dense
// matrix of finite values. Values are collected as they are read, so a
// size line alone allocates nothing.
func ReadMatrixMarketArray(r io.Reader) (*Dense, error) {
	var r64, c64 int64
	sc, err := ScanMatrixMarket(r, "array", &r64, &c64)
	if err != nil {
		return nil, err
	}
	rows, cols, err := CheckDims(r64, c64)
	if err != nil {
		return nil, err
	}
	total := rows * cols
	vals := make([]float64, 0, min(total, 1<<16))
	for line, ok := MatrixMarketLine(sc); ok; line, ok = MatrixMarketLine(sc) {
		v, err := strconv.ParseFloat(line, 64)
		if err != nil || math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("mat: bad value %q: want a finite number", line)
		}
		if len(vals) == total {
			return nil, fmt.Errorf("mat: more than %d values in %dx%d array", total, rows, cols)
		}
		vals = append(vals, v)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(vals) != total {
		return nil, fmt.Errorf("mat: got %d of %d values", len(vals), total)
	}
	a := NewDense(rows, cols)
	for idx, v := range vals { // column-major order per the format
		a.Set(idx%rows, idx/rows, v)
	}
	return a, nil
}
