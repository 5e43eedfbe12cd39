package mat

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
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
// The binary reader and sparse's MatrixMarket reader apply it before
// they read a value.
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
