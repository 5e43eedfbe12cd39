package ooc

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"

	"hpcnmf/internal/mat"
	"hpcnmf/internal/store"
)

// Writer streams a matrix into a tile file one row at a time, so
// datasets larger than RAM can be generated without ever
// materializing them. Every byte passes through the container's
// CRC-32C as it is written. Close appends the CRC, flushes, fsyncs
// the file and its parent directory, and fails if the advertised row
// count was not written.
type Writer struct {
	f          *os.File
	bw         *bufio.Writer
	cw         io.Writer    // bw, through the container's CRC
	finish     func() error // appends the CRC
	rows, cols int
	rowBuf     []byte
	written    int
	path       string
}

// Create starts a tile file for a rows×cols matrix. The file fixes no
// panel height — Open derives it from the reader's budget — so
// tileRows must be ≤ 0; a positive value is an error.
func Create(path string, rows, cols, tileRows int) (*Writer, error) {
	if tileRows > 0 {
		return nil, fmt.Errorf("ooc: tileRows %d: a tile file has no panel height (Open picks it from its budget); pass 0", tileRows)
	}
	if rows < 1 || cols < 1 {
		return nil, fmt.Errorf("ooc: empty %dx%d tile file", rows, cols)
	}
	if _, _, err := mat.CheckDims(int64(rows), int64(cols)); err != nil {
		return nil, err
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	bw := bufio.NewWriterSize(f, 1<<20)
	cw, finish, err := store.StartContainer(bw, tileMagic, tileHeader{Version: tileVersion})
	if err == nil {
		_, err = cw.Write(mat.AppendBlockHeader(nil, rows, cols))
	}
	if err != nil {
		f.Close()
		return nil, err
	}
	return &Writer{f: f, bw: bw, cw: cw, finish: finish, rows: rows, cols: cols, rowBuf: make([]byte, cols*8), path: path}, nil
}

// WriteRow appends the next matrix row (len must equal cols).
func (w *Writer) WriteRow(row []float64) error {
	if len(row) != w.cols {
		return fmt.Errorf("ooc: row of %d values, want %d", len(row), w.cols)
	}
	if w.written >= w.rows {
		return fmt.Errorf("ooc: too many rows: file holds %d", w.rows)
	}
	for i, v := range row {
		binary.LittleEndian.PutUint64(w.rowBuf[i*8:], math.Float64bits(v))
	}
	if _, err := w.cw.Write(w.rowBuf); err != nil {
		return err
	}
	w.written++
	return nil
}

// Close completes the file durably. It errors if fewer rows were
// written than Create advertised, leaving the (invalid-length) file
// behind for inspection.
func (w *Writer) Close() error {
	if w.written != w.rows {
		w.f.Close()
		return fmt.Errorf("ooc: wrote %d of %d rows", w.written, w.rows)
	}
	err := w.finish()
	if err == nil {
		err = w.bw.Flush()
	}
	if err == nil {
		err = w.f.Sync()
	}
	if cerr := w.f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	return store.SyncDir(filepath.Dir(w.path))
}

// WriteMatrix writes an in-core dense matrix as a tile file; tileRows
// is Create's.
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
