package ooc

import (
	"errors"
	"fmt"
	"io"
	"math"
	"math/bits"
	"os"
	"unsafe"

	"hpcnmf/internal/store"
)

// hostLittleEndian reports whether this machine's float64 layout
// already matches the on-disk little-endian format. On a big-endian
// host ReadTile reverses each element's bytes after the read.
var hostLittleEndian = func() bool {
	var x uint16 = 1
	return *(*byte)(unsafe.Pointer(&x)) == 1
}()

// File is an open tile file. ReadTile reads one tile into a caller's
// buffer; use NewPipeline to stream tiles with prefetch.
type File struct {
	path    string
	hdr     Header
	f       *os.File
	payload int64 // offset of the matrix's first element
}

// Open opens a tile file and checks all of it before any tile is read:
// the container magic, its header and version, the block's dims, the
// exact file length — so truncation and trailing garbage are refused —
// and the CRC-32C over every byte, streamed through a small buffer, so
// a flipped bit anywhere is refused too (wrapping store.ErrChecksum).
// budget, in bytes, sizes the row panels (PanelRows): ≤ 0 picks
// ~8 MiB ones.
func Open(path string, budget int64) (*File, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	file := &File{path: path, f: f}
	if err := file.check(budget); err != nil {
		f.Close()
		return nil, fmt.Errorf("ooc: %s: %w", path, err)
	}
	return file, nil
}

// check validates the open file and sets its header and payload
// offset.
func (f *File) check(budget int64) error {
	st, err := f.f.Stat()
	if err != nil {
		return err
	}
	size := st.Size()
	prefix := make([]byte, min(size, prefixBytes))
	if _, err := f.f.ReadAt(prefix, 0); err != nil {
		return err
	}
	rows, cols, payload, err := parsePrefix(prefix)
	if err != nil {
		return err
	}
	if want := int64(payload) + int64(rows)*int64(cols)*8 + 4; size != want {
		return fmt.Errorf("%d bytes, its block implies exactly %d (truncated or trailing garbage)", size, want)
	}
	tileRows, err := PanelRows(cols, budget)
	if err != nil {
		return err
	}
	if err := store.CheckCRC(f.f, size, tileMagic); err != nil {
		return err
	}
	f.hdr = Header{Rows: int64(rows), Cols: int64(cols), TileRows: int64(min(tileRows, rows))}
	f.payload = int64(payload)
	return nil
}

// Header returns the file's shape and panel height.
func (f *File) Header() Header { return f.hdr }

// Dims returns the matrix shape.
func (f *File) Dims() (rows, cols int) { return int(f.hdr.Rows), int(f.hdr.Cols) }

// Tiles returns the number of row-panel tiles.
func (f *File) Tiles() int { return f.hdr.Tiles() }

// TileBounds returns the half-open row range [r0, r1) of tile t.
func (f *File) TileBounds(t int) (r0, r1 int) { return f.hdr.TileBounds(t) }

// ReadTile reads tile t into dst, which must have capacity for
// Header().MaxTileElems() elements, and returns dst[:n]. The payload
// is little-endian float64, so one ReadAt lands it in the buffer's
// bytes with no decode pass and no intermediate copy. A file that
// shrank after Open is an error wrapping io.ErrUnexpectedEOF.
func (f *File) ReadTile(t int, dst []float64) ([]float64, error) {
	if t < 0 || t >= f.hdr.Tiles() {
		return nil, fmt.Errorf("ooc: tile %d out of range [0,%d)", t, f.hdr.Tiles())
	}
	r0, r1 := f.hdr.TileBounds(t)
	dst = dst[:(r1-r0)*int(f.hdr.Cols)]
	raw := unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(dst))), len(dst)*8)
	if _, err := f.f.ReadAt(raw, f.payload+int64(r0)*f.hdr.Cols*8); err != nil {
		if errors.Is(err, io.EOF) {
			err = io.ErrUnexpectedEOF
		}
		return nil, fmt.Errorf("ooc: reading tile %d of %s: %w", t, f.path, err)
	}
	if !hostLittleEndian {
		reverseBytes(dst)
	}
	return dst, nil
}

// reverseBytes reverses the byte order of every element of v in place,
// turning little-endian file words into the host's big-endian floats.
func reverseBytes(v []float64) {
	for i, x := range v {
		v[i] = math.Float64frombits(bits.ReverseBytes64(math.Float64bits(x)))
	}
}

// Close closes the file.
func (f *File) Close() error { return f.f.Close() }
