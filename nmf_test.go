package hpcnmf_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"hpcnmf"
	"hpcnmf/internal/store"
)

func TestFacadeSequential(t *testing.T) {
	a := hpcnmf.DenseFromRows([][]float64{
		{1, 0, 2, 1},
		{0, 1, 1, 0},
		{2, 1, 5, 2},
		{1, 0, 2, 1},
		{0, 2, 2, 0},
	})
	res, err := hpcnmf.Run(hpcnmf.WrapDense(a), hpcnmf.Options{K: 2, MaxIter: 30, ComputeError: true, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	// This matrix is exactly rank 2 with a non-negative factorization,
	// so NMF should fit it nearly perfectly.
	if last := res.RelErr[len(res.RelErr)-1]; last > 1e-3 {
		t.Fatalf("relative error %g on an exactly-NMF-factorable matrix", last)
	}
}

func TestFacadeParallelAgreesWithSequential(t *testing.T) {
	ds, err := hpcnmf.GenerateDataset("dsyn", 0.03, 3)
	if err != nil {
		t.Fatal(err)
	}
	opts := hpcnmf.Options{K: 4, MaxIter: 4, Seed: 5, ComputeError: true}
	seq, err := hpcnmf.Run(ds.Matrix, opts)
	if err != nil {
		t.Fatal(err)
	}
	par, err := hpcnmf.RunParallel(ds.Matrix, 6, opts)
	if err != nil {
		t.Fatal(err)
	}
	if d := par.W.MaxDiff(seq.W); d > 1e-6 {
		t.Fatalf("parallel W differs by %g", d)
	}
	naive, err := hpcnmf.RunNaive(ds.Matrix, 6, opts)
	if err != nil {
		t.Fatal(err)
	}
	if d := naive.H.MaxDiff(seq.H); d > 1e-6 {
		t.Fatalf("naive H differs by %g", d)
	}
	oneD, err := hpcnmf.RunOnGrid(ds.Matrix, 6, 1, opts)
	if err != nil {
		t.Fatal(err)
	}
	if d := oneD.W.MaxDiff(seq.W); d > 1e-6 {
		t.Fatalf("1D grid W differs by %g", d)
	}
	if _, err := hpcnmf.RunOnGrid(ds.Matrix, 0, 2, opts); err == nil {
		t.Fatal("RunOnGrid accepted a 0x2 grid")
	}
}

func TestFacadeSparse(t *testing.T) {
	ds, err := hpcnmf.GenerateDataset("ssyn", 0.05, 7)
	if err != nil {
		t.Fatal(err)
	}
	res, err := hpcnmf.RunParallel(ds.Matrix, 4, hpcnmf.Options{K: 3, MaxIter: 3, Seed: 2, ComputeError: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.W.Min() < 0 || res.H.Min() < 0 {
		t.Fatal("factors not non-negative")
	}
	if math.IsNaN(res.RelErr[len(res.RelErr)-1]) {
		t.Fatal("NaN objective")
	}
}

func TestFacadeMatrixMarket(t *testing.T) {
	in := `%%MatrixMarket matrix coordinate real general
3 3 3
1 1 1.0
2 2 2.0
3 3 3.0
`
	a, err := hpcnmf.ReadMatrixMarket(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if a.NNZ() != 3 || a.At(2, 2) != 3 {
		t.Fatal("MatrixMarket parse wrong")
	}
}

func TestFacadeSolverSelection(t *testing.T) {
	ds, err := hpcnmf.GenerateDataset("dsyn", 0.02, 9)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []hpcnmf.SolverKind{hpcnmf.SolverBPP, hpcnmf.SolverHALS, hpcnmf.SolverMU} {
		res, err := hpcnmf.RunParallel(ds.Matrix, 4, hpcnmf.Options{K: 3, MaxIter: 3, Seed: 2, Solver: s, Sweeps: 2})
		if err != nil {
			t.Fatalf("%v: %v", s, err)
		}
		if !res.W.IsFinite() {
			t.Fatalf("%v: non-finite factors", s)
		}
	}
}

func TestChooseGrid(t *testing.T) {
	g := hpcnmf.ChooseGrid(100000, 50, 8)
	if g.PC != 1 {
		t.Fatalf("tall-skinny grid %dx%d", g.PR, g.PC)
	}
}

// TestGenerateDatasetRefusesBadInput: an unknown name and a scale
// with no usable dimensions are errors naming the value, not panics.
func TestGenerateDatasetRefusesBadInput(t *testing.T) {
	for _, tc := range []struct {
		name  string
		scale float64
		want  string
	}{{"nope", 1, `"nope"`}, {"dsyn", math.NaN(), "NaN"}, {"dsyn", 1e30, "1e+30"}} {
		if _, err := hpcnmf.GenerateDataset(tc.name, tc.scale, 0); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("GenerateDataset(%q, %v): err = %v, want one naming %s", tc.name, tc.scale, err, tc.want)
		}
	}
}

// TestFacadeSaveLoadFactor: a saved factor file loads back equal, and
// every damaged copy of it is refused: each single-bit flip and each
// truncation. A flip past the container's header, and a cut that keeps
// the header and four bytes more, wrap store.ErrChecksum.
func TestFacadeSaveLoadFactor(t *testing.T) {
	dir := t.TempDir()
	w := hpcnmf.NewDense(4, 3)
	w.Set(2, 1, 7.25)
	path := filepath.Join(dir, "w.bin")
	if err := hpcnmf.SaveFactor(path, w); err != nil {
		t.Fatal(err)
	}
	good, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	front := 8 + 4 + int(binary.LittleEndian.Uint32(good[8:])) // magic, header length, header
	type input struct {
		name             string
		data             []byte
		refused, crcFail bool
	}
	inputs := []input{{name: "saved", data: good}}
	for off := range good {
		for bit := 0; bit < 8; bit++ {
			bad := bytes.Clone(good)
			bad[off] ^= 1 << bit
			inputs = append(inputs, input{fmt.Sprintf("bit %d of byte %d flipped", bit, off), bad, true, off >= front})
		}
	}
	for n := range good {
		inputs = append(inputs, input{fmt.Sprintf("cut to %d bytes", n), good[:n], true, n >= front+4})
	}
	for _, in := range inputs {
		if err := os.WriteFile(path, in.data, 0o644); err != nil {
			t.Fatal(err)
		}
		got, err := hpcnmf.LoadFactor(path)
		switch {
		case !in.refused && (err != nil || !got.Equal(w, 0)):
			t.Fatalf("%s: factor round trip failed: %v", in.name, err)
		case in.refused && err == nil:
			t.Fatalf("%s: factor file accepted", in.name)
		case in.crcFail && !errors.Is(err, store.ErrChecksum):
			t.Fatalf("%s: err = %v, want store.ErrChecksum", in.name, err)
		}
	}
	if _, err := hpcnmf.LoadFactor(filepath.Join(dir, "missing.bin")); err == nil {
		t.Fatal("missing file accepted")
	}
}

// TestFacadeOpenTiledBackend: the backend-naming opener takes only the
// one reader's name, and refuses any other naming the value it got.
func TestFacadeOpenTiledBackend(t *testing.T) {
	path := t.TempDir() + "/a.nmft"
	if err := hpcnmf.WriteTiled(path, hpcnmf.NewDense(6, 2), 0); err != nil {
		t.Fatal(err)
	}
	f, err := hpcnmf.OpenTiledBackend(path, hpcnmf.TileBackendReaderAt)
	if err != nil {
		t.Fatal(err)
	}
	f.Close()
	for _, name := range []string{"auto", "", "READERAT"} {
		if _, err := hpcnmf.OpenTiledBackend(path, name); err == nil || !strings.Contains(err.Error(), `"`+name+`"`) {
			t.Errorf("OpenTiledBackend(%q): err = %v, want one naming the value", name, err)
		}
	}
}

func TestFacadeBalance(t *testing.T) {
	// A matrix with a hub column is maximally imbalanced on a 2D grid.
	rep := hpcnmf.AnalyzeBalance(syntheticGraph(400), 4, 7)
	if rep.Before <= 1 {
		t.Fatalf("hub-column graph reported balanced: %+v", rep)
	}
	bal, rowMap, colMap := hpcnmf.BalanceSparse(syntheticGraph(200), 11)
	if bal.NNZ() == 0 || len(rowMap) != 200 || len(colMap) != 200 {
		t.Fatal("BalanceSparse malformed output")
	}
}

// syntheticGraph builds a small skewed sparse matrix through the
// public API only.
func syntheticGraph(n int) *hpcnmf.CSR {
	var coords []hpcnmf.Coord
	for i := 0; i < n; i++ {
		coords = append(coords, hpcnmf.Coord{Row: i, Col: 0, Val: 1}) // hub column
		coords = append(coords, hpcnmf.Coord{Row: i, Col: (i*7 + 3) % n, Val: 1})
	}
	return hpcnmf.SparseFromCoords(n, n, coords)
}

func TestFacadeDenseMatrixMarket(t *testing.T) {
	in := "%%MatrixMarket matrix array real general\n2 2\n1\n2\n3\n4\n"
	s, err := hpcnmf.ReadMatrixMarket(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	a := s.ToDense()
	// Column-major: a[0][0]=1 a[1][0]=2 a[0][1]=3 a[1][1]=4.
	if a.At(1, 0) != 2 || a.At(0, 1) != 3 {
		t.Fatal("array parse wrong")
	}
}
