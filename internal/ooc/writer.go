package ooc

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"path/filepath"

	"hpcnmf/internal/mat"
	"hpcnmf/internal/store"
)

// Writer streams a matrix into a tile file one row at a time, so
// datasets larger than RAM can be generated without ever
// materializing them. Close flushes, fsyncs the file and its parent
// directory, and fails if the advertised row count was not written.
type Writer struct {
	f       *os.File
	bw      *bufio.Writer
	hdr     Header
	rowBuf  []byte
	written int64
	path    string
}

// Create starts a tile file for a rows×cols matrix with tileRows-row
// panels. tileRows ≤ 0 selects DefaultTileRows for the width;
// tileRows > rows is clamped (a single-tile file).
func Create(path string, rows, cols, tileRows int) (*Writer, error) {
	if tileRows <= 0 {
		tileRows = DefaultTileRows(cols)
	}
	if tileRows > rows {
		tileRows = rows
	}
	h := Header{Rows: int64(rows), Cols: int64(cols), TileRows: int64(tileRows)}
	hb, err := EncodeHeader(h)
	if err != nil {
		return nil, err
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	bw := bufio.NewWriterSize(f, 1<<20)
	if _, err := bw.Write(hb); err != nil {
		f.Close()
		return nil, err
	}
	return &Writer{f: f, bw: bw, hdr: h, rowBuf: make([]byte, cols*8), path: path}, nil
}

// Header returns the file's header.
func (w *Writer) Header() Header { return w.hdr }

// WriteRow appends the next matrix row (len must equal cols).
func (w *Writer) WriteRow(row []float64) error {
	if int64(len(row)) != w.hdr.Cols {
		return fmt.Errorf("ooc: row of %d values, want %d", len(row), w.hdr.Cols)
	}
	if w.written >= w.hdr.Rows {
		return fmt.Errorf("ooc: too many rows: file holds %d", w.hdr.Rows)
	}
	for i, v := range row {
		binary.LittleEndian.PutUint64(w.rowBuf[i*8:], math.Float64bits(v))
	}
	if _, err := w.bw.Write(w.rowBuf); err != nil {
		return err
	}
	w.written++
	return nil
}

// Close completes the file durably. It errors if fewer rows were
// written than the header advertises, leaving the (invalid-length)
// file behind for inspection.
func (w *Writer) Close() error {
	if w.written != w.hdr.Rows {
		w.f.Close()
		return fmt.Errorf("ooc: wrote %d of %d rows", w.written, w.hdr.Rows)
	}
	if err := w.bw.Flush(); err != nil {
		w.f.Close()
		return err
	}
	if err := w.f.Sync(); err != nil {
		w.f.Close()
		return err
	}
	if err := w.f.Close(); err != nil {
		return err
	}
	return store.SyncDir(filepath.Dir(w.path))
}

// WriteMatrix writes an in-core dense matrix as a tile file.
func WriteMatrix(path string, d *mat.Dense, tileRows int) error {
	w, err := Create(path, d.Rows, d.Cols, tileRows)
	if err != nil {
		return err
	}
	for i := 0; i < d.Rows; i++ {
		if err := w.WriteRow(d.Data[i*d.Cols : (i+1)*d.Cols]); err != nil {
			w.f.Close()
			return err
		}
	}
	return w.Close()
}

// defaultTileBytes targets ~8 MiB panels: large enough that the
// per-tile kernel launch and pipeline handoff are noise, small enough
// that a depth-2 pipeline stays well under typical memory budgets.
const defaultTileBytes = 8 << 20

// DefaultTileRows returns the default panel height for a matrix of
// the given width (at least 1 row, ~8 MiB per tile).
func DefaultTileRows(cols int) int {
	if cols <= 0 {
		return 1
	}
	r := defaultTileBytes / (cols * 8)
	if r < 1 {
		r = 1
	}
	return r
}

// TileRowsForBudget returns the largest panel height whose prefetch
// pipeline (depth+1 resident tile buffers) fits the byte budget, or
// an error when even single-row panels exceed it.
func TileRowsForBudget(cols, depth int, budget int64) (int, error) {
	if depth < 1 {
		depth = 1
	}
	rowBytes := int64(cols) * 8
	r := budget / (int64(depth+1) * rowBytes)
	if r < 1 {
		return 0, fmt.Errorf("ooc: budget %d B cannot hold %d single-row tiles of %d B", budget, depth+1, rowBytes)
	}
	if int64(int(r)) != r {
		r = int64(int(^uint(0) >> 1))
	}
	return int(r), nil
}
