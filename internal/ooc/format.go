// Package ooc implements out-of-core dense matrices: a tiled on-disk
// format (a fixed 64-byte header followed by row-major row-panel
// tiles), a streaming writer, a tile reader that reads each tile with
// one ReadAt into the caller's buffer, and a bounded prefetch pipeline
// that loads tile t+1 while the caller consumes tile t.
//
// The format stores A row-major in float64, split into panels of
// TileRows consecutive rows (the last panel may be ragged). Row
// panels are exactly the unit the sequential ANLS skeleton streams:
// A·Hᵀ is computed panel-by-panel into disjoint output rows, and
// Wᵀ·A accumulates panel Gram-style products in ascending row order,
// so a streamed iteration is bitwise identical to the in-core one at
// any tile size (see DESIGN decision 15).
package ooc

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
)

// Magic identifies a tile file ("HPNMF Tiled v01").
const Magic = "HPNMFT01"

// Version is the current tile-file format version.
const Version = 1

// HeaderSize is the fixed on-disk header length.
const HeaderSize = 64

// maxElements bounds rows*cols to the same plausibility ceiling the
// in-core binary format enforces (2^40 elements = 8 TiB of payload).
const maxElements = int64(1) << 40

// maxPlatformInt is the largest int64 that fits the platform int, so
// tile files admitted here are always indexable with int (the guard
// that matters on 32-bit builds).
const maxPlatformInt = int64(^uint(0) >> 1)

// Header describes a tile file: matrix shape plus the row-panel
// height. TileRows is clamped to Rows (a single-tile file).
type Header struct {
	Rows     int64
	Cols     int64
	TileRows int64
}

// Tiles returns the number of row-panel tiles.
func (h Header) Tiles() int {
	return int((h.Rows + h.TileRows - 1) / h.TileRows)
}

// TileBounds returns the half-open row range [r0, r1) of tile t.
func (h Header) TileBounds(t int) (r0, r1 int) {
	r0 = t * int(h.TileRows)
	r1 = r0 + int(h.TileRows)
	if r1 > int(h.Rows) {
		r1 = int(h.Rows)
	}
	return r0, r1
}

// DataSize returns the payload length in bytes.
func (h Header) DataSize() int64 {
	return h.Rows * h.Cols * 8
}

// FileSize returns the exact on-disk length of a valid tile file.
// Open rejects any other length, so trailing garbage and truncation
// are both detected before the first tile is read.
func (h Header) FileSize() int64 {
	return HeaderSize + h.DataSize()
}

// MaxTileElems returns the element count of the largest (non-ragged)
// tile — the per-tile buffer size.
func (h Header) MaxTileElems() int {
	return int(h.TileRows * h.Cols)
}

// EncodeHeader serializes h into a HeaderSize-byte block:
//
//	[0:8)   magic "HPNMFT01"
//	[8:12)  uint32 version
//	[12:16) reserved (zero)
//	[16:24) int64 rows
//	[24:32) int64 cols
//	[32:40) int64 tileRows
//	[40:56) reserved (zero)
//	[56:60) uint32 IEEE CRC32 of bytes [0:56)
//	[60:64) reserved (zero)
//
// All integers are little-endian.
func EncodeHeader(h Header) ([]byte, error) {
	if err := validate(h); err != nil {
		return nil, err
	}
	b := make([]byte, HeaderSize)
	copy(b, Magic)
	binary.LittleEndian.PutUint32(b[8:], Version)
	binary.LittleEndian.PutUint64(b[16:], uint64(h.Rows))
	binary.LittleEndian.PutUint64(b[24:], uint64(h.Cols))
	binary.LittleEndian.PutUint64(b[32:], uint64(h.TileRows))
	binary.LittleEndian.PutUint32(b[56:], crc32.ChecksumIEEE(b[:56]))
	return b, nil
}

// ParseHeader validates and decodes a tile-file header. It is a pure
// function of the byte block (no I/O), which makes it directly
// fuzzable; every integrity failure is a distinct error.
func ParseHeader(b []byte) (Header, error) {
	if len(b) < HeaderSize {
		return Header{}, fmt.Errorf("ooc: tile header truncated: %d bytes, want %d", len(b), HeaderSize)
	}
	b = b[:HeaderSize]
	if string(b[:8]) != Magic {
		return Header{}, fmt.Errorf("ooc: bad tile-file magic %q", b[:8])
	}
	if got, want := crc32.ChecksumIEEE(b[:56]), binary.LittleEndian.Uint32(b[56:]); got != want {
		return Header{}, fmt.Errorf("ooc: tile header checksum mismatch (stored %#x, computed %#x)", want, got)
	}
	if v := binary.LittleEndian.Uint32(b[8:]); v != Version {
		return Header{}, fmt.Errorf("ooc: tile-file version %d, this build reads %d", v, Version)
	}
	for _, i := range [...]int{12, 13, 14, 15, 60, 61, 62, 63} {
		if b[i] != 0 {
			return Header{}, fmt.Errorf("ooc: reserved header byte %d is nonzero", i)
		}
	}
	for i := 40; i < 56; i++ {
		if b[i] != 0 {
			return Header{}, fmt.Errorf("ooc: reserved header byte %d is nonzero", i)
		}
	}
	h := Header{
		Rows:     int64(binary.LittleEndian.Uint64(b[16:])),
		Cols:     int64(binary.LittleEndian.Uint64(b[24:])),
		TileRows: int64(binary.LittleEndian.Uint64(b[32:])),
	}
	if err := validate(h); err != nil {
		return Header{}, err
	}
	if h.TileRows > h.Rows {
		h.TileRows = h.Rows
	}
	return h, nil
}

// validate checks shape sanity with all arithmetic in int64 so a
// hostile header cannot overflow 32-bit int before the bounds are
// applied.
func validate(h Header) error {
	if h.Rows < 1 || h.Cols < 1 {
		return fmt.Errorf("ooc: invalid tile-file shape %dx%d", h.Rows, h.Cols)
	}
	if h.TileRows < 1 {
		return fmt.Errorf("ooc: invalid tile rows %d", h.TileRows)
	}
	if h.Rows > maxElements/h.Cols {
		return fmt.Errorf("ooc: implausible tile-file shape %dx%d (over %d elements)", h.Rows, h.Cols, maxElements)
	}
	total := h.Rows * h.Cols
	if total > maxPlatformInt {
		return fmt.Errorf("ooc: tile file with %d elements does not fit this platform's int", total)
	}
	tr := h.TileRows
	if tr > h.Rows {
		tr = h.Rows
	}
	if tr*h.Cols > maxPlatformInt {
		return fmt.Errorf("ooc: tile of %d elements does not fit this platform's int", tr*h.Cols)
	}
	return nil
}
