// Command datagen emits the evaluation datasets to files so they can
// be inspected or fed to other tools (nmfrun -mm reads them back):
// every dataset in MatrixMarket coordinate format, a dense one with
// all of its entries. With -tiled it instead writes the out-of-core
// tile format read by nmfrun -tiled, streaming DSYN row by row so the
// output can be far larger than memory.
//
// Usage:
//
//	datagen -data ssyn -scale 0.5 -o ssyn.mtx
//	datagen -data video -o video.mtx
//	datagen -data dsyn -tiled -rows 200000 -cols 4096 -o big.nmft
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"hpcnmf/internal/core"
	"hpcnmf/internal/datasets"
	"hpcnmf/internal/ooc"
	"hpcnmf/internal/sparse"
)

func main() {
	var (
		data  = flag.String("data", "ssyn", "dataset: dsyn, ssyn, video, webbase, bow")
		scale = flag.Float64("scale", 0.25, "dataset scale factor")
		seed  = flag.Uint64("seed", 42, "random seed")
		out   = flag.String("o", "", "output path (default <data>.mtx, or <data>.nmft with -tiled)")
		tiled = flag.Bool("tiled", false, "write the out-of-core tile format instead of MatrixMarket (dense datasets only)")
		rows  = flag.Int("rows", 0, "override row count for -tiled dsyn (streams row by row; 0 = scaled default)")
		cols  = flag.Int("cols", 0, "override column count for -tiled dsyn (0 = scaled default)")
	)
	flag.Parse()

	path := *out
	if path == "" {
		if *tiled {
			path = *data + ".nmft"
		} else {
			path = *data + ".mtx"
		}
	}
	if *tiled {
		writeTiled(path, *data, *scale, *seed, *rows, *cols)
		return
	}
	if *rows != 0 || *cols != 0 {
		fatal("-rows/-cols only apply to -tiled output")
	}
	ds, err := datasets.ByName(*data, datasets.Scale(*scale), *seed)
	if err != nil {
		fatal("%v", err)
	}
	f, err := os.Create(path)
	if err != nil {
		fatal("%v", err)
	}
	defer f.Close()

	csr, ok := core.UnwrapSparse(ds.Matrix)
	if !ok { // dense: every entry is written, zeros included
		d, _ := core.UnwrapDense(ds.Matrix)
		coords := make([]sparse.Coord, len(d.Data))
		for idx, v := range d.Data {
			coords[idx] = sparse.Coord{Row: idx / d.Cols, Col: idx % d.Cols, Val: v}
		}
		csr = sparse.FromCoords(d.Rows, d.Cols, coords)
	}
	if err := csr.WriteMatrixMarket(f); err != nil {
		fatal("writing %s: %v", path, err)
	}
	fmt.Printf("wrote %s: %s %dx%d (nnz %d)\n", path, ds.Name, csr.Rows, csr.Cols, csr.NNZ())
}

// writeTiled emits a dataset in the out-of-core tile format. DSYN is
// streamed one row at a time — memory stays constant no matter how
// large -rows/-cols make the output, and the values are bitwise
// identical to the in-core generator. Other dense datasets are
// generated in memory first; sparse ones have no tiled form. The file
// fixes no panel height: the reader picks it (nmfrun -tile-mem).
func writeTiled(path, data string, scale float64, seed uint64, rows, cols int) {
	if err := datasets.Scale(scale).Check(); err != nil {
		fatal("%v", err)
	}
	switch strings.ToLower(data) {
	case "dsyn":
		m, n := rows, cols
		if m <= 0 {
			m = datasets.Scale(scale).Dim(1728)
		}
		if n <= 0 {
			n = datasets.Scale(scale).Dim(1152)
		}
		w, err := ooc.Create(path, m, n, 0)
		if err != nil {
			fatal("%v", err)
		}
		if err := datasets.StreamDSYN(m, n, seed, w.WriteRow); err != nil {
			w.Close()
			fatal("writing %s: %v", path, err)
		}
		if err := w.Close(); err != nil {
			fatal("writing %s: %v", path, err)
		}
		fmt.Printf("wrote %s: DSYN %dx%d (streamed)\n", path, m, n)
	case "video":
		if rows != 0 || cols != 0 {
			fatal("-rows/-cols only apply to dsyn")
		}
		ds, err := datasets.ByName(data, datasets.Scale(scale), seed)
		if err != nil {
			fatal("%v", err)
		}
		d, _ := core.UnwrapDense(ds.Matrix)
		if err := ooc.WriteMatrix(path, d, 0); err != nil {
			fatal("writing %s: %v", path, err)
		}
		fmt.Printf("wrote %s: %s %dx%d\n", path, ds.Name, d.Rows, d.Cols)
	default:
		fatal("-tiled supports dense datasets only (dsyn, video); %q is sparse or unknown", data)
	}
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "datagen: "+format+"\n", args...)
	os.Exit(1)
}
