// Package ooc implements out-of-core dense matrices: a tile file (a
// one-block store container), a streaming writer, a reader that checks
// the whole file once at Open and then reads each row panel with one
// ReadAt into the caller's buffer, and a bounded prefetch pipeline
// that loads panel t+1 while the caller consumes panel t.
//
// A tile file is the container every factor file uses (DESIGN decision
// 9): magic "HPNMFT02", the JSON header {"version":1}, one mat binary
// block — rows, cols, then A row-major in little-endian float64 — and
// a CRC-32C over every byte before it. The file fixes no panel height:
// Open derives it from the reader's byte budget (PanelRows), and the
// last panel may be ragged. Row panels are exactly the unit the
// sequential ANLS skeleton streams: A·Hᵀ is computed panel-by-panel
// into disjoint output rows, and Wᵀ·A accumulates panel Gram-style
// products in ascending row order, so a streamed iteration is bitwise
// identical to the in-core one at any panel height (see DESIGN
// decision 15).
package ooc

import (
	"bytes"
	"fmt"

	"hpcnmf/internal/mat"
	"hpcnmf/internal/store"
)

// tileMagic names the tile-file container kind.
const tileMagic = "HPNMFT02"

// tileVersion is the tile-file header version this build reads.
const tileVersion = 1

// tileHeader is the tile file's JSON header.
type tileHeader struct {
	Version int `json:"version"`
}

// prefixBytes bounds the front of a tile file Open parses — container
// magic, header length, JSON header and block header; a version 1
// front is 49 bytes.
const prefixBytes = 4 << 10

// Header describes an open tile file: the matrix shape, and the panel
// height Open derived from its budget (at most Rows).
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

// MaxTileElems returns the element count of the largest (non-ragged)
// tile — the per-tile buffer size.
func (h Header) MaxTileElems() int {
	return int(h.TileRows * h.Cols)
}

// parsePrefix checks the front of a tile file held in b: the container
// magic, the JSON header and its version, then the block header, whose
// dims mat.CheckDims guards. It returns the dims and the offset of the
// payload. It is a pure function of the bytes, which makes it directly
// fuzzable.
func parsePrefix(b []byte) (rows, cols, payload int, err error) {
	if bytes.HasPrefix(b, []byte("HPNMFT01")) {
		return 0, 0, 0, fmt.Errorf("ooc: a version 1 tile file (HPNMFT01), which this build does not read; regenerate it with datagen -tiled")
	}
	var h tileHeader
	off, err := store.ParseHeader(b, tileMagic, &h)
	if err != nil {
		return 0, 0, 0, err
	}
	if h.Version != tileVersion {
		return 0, 0, 0, fmt.Errorf("ooc: tile-file version %d, this build reads %d", h.Version, tileVersion)
	}
	if rows, cols, err = mat.ParseBlockHeader(b[off:]); err != nil {
		return 0, 0, 0, err
	}
	if rows < 1 || cols < 1 {
		return 0, 0, 0, fmt.Errorf("ooc: empty %dx%d tile file", rows, cols)
	}
	return rows, cols, off + mat.BlockHeaderSize, nil
}

// defaultPanelBytes targets ~8 MiB panels: large enough that the
// per-panel kernel launch and pipeline handoff are noise, small enough
// that a depth-2 pipeline stays well under typical memory budgets.
const defaultPanelBytes = 8 << 20

// PanelRows returns the row-panel height for a cols-wide matrix read
// under a byte budget. budget ≤ 0 gives the ~8 MiB default (at least
// one row); otherwise it is the tallest panel, no taller than that
// default, whose DefaultDepth+1 copies fit the budget. It is an error
// only when one row per copy does not fit.
func PanelRows(cols int, budget int64) (int, error) {
	rowBytes := int64(max(cols, 1)) * 8
	rows := max(defaultPanelBytes/rowBytes, 1)
	if budget <= 0 {
		return int(rows), nil
	}
	fit := budget / (int64(DefaultDepth+1) * rowBytes)
	if fit < 1 {
		return 0, fmt.Errorf("ooc: a budget of %d B cannot hold %d one-row panels of %d B", budget, DefaultDepth+1, rowBytes)
	}
	return int(min(rows, fit)), nil
}
