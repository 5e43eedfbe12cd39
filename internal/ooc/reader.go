package ooc

import (
	"errors"
	"fmt"
	"io"
	"math"
	"math/bits"
	"os"
	"unsafe"
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
	path string
	hdr  Header
	f    *os.File
}

// Open opens a tile file. The header is validated (magic, CRC,
// version, shape) and the file length must match the header exactly —
// a truncated or trailing-garbage file is rejected here, before any
// tile is read.
func Open(path string) (*File, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	var hb [HeaderSize]byte
	if _, err := f.ReadAt(hb[:], 0); err != nil {
		f.Close()
		return nil, fmt.Errorf("ooc: reading tile header of %s: %w", path, err)
	}
	h, err := ParseHeader(hb[:])
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("ooc: %s: %w", path, err)
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	if st.Size() != h.FileSize() {
		f.Close()
		return nil, fmt.Errorf("ooc: %s is %d bytes, header implies exactly %d (truncated or trailing garbage)",
			path, st.Size(), h.FileSize())
	}
	return &File{path: path, hdr: h, f: f}, nil
}

// Path returns the file's path.
func (f *File) Path() string { return f.path }

// Header returns the validated header.
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
	if _, err := f.f.ReadAt(raw, HeaderSize+int64(r0)*f.hdr.Cols*8); err != nil {
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
