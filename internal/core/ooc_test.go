package core

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"hpcnmf/internal/mat"
	"hpcnmf/internal/metrics"
	"hpcnmf/internal/ooc"
)

// tilePath is a tile file on disk and the read budget under which
// ooc.Open gives it the panel height a test asked for.
type tilePath struct {
	path   string
	budget int64
}

func writeTileFile(t *testing.T, d *mat.Dense, tileRows int) tilePath {
	t.Helper()
	path := filepath.Join(t.TempDir(), "a.hpt")
	if err := ooc.WriteMatrix(path, d, 0); err != nil {
		t.Fatal(err)
	}
	return tilePath{path, int64(ooc.DefaultDepth+1) * int64(tileRows) * int64(d.Cols) * 8}
}

func openTileFile(t *testing.T, tp tilePath) *ooc.File {
	t.Helper()
	f, err := ooc.Open(tp.path, tp.budget)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })
	return f
}

// TestOutOfCoreMatchesSequential is the acceptance test of the
// streaming driver: factorizing from disk must reproduce the in-core
// sequential run bitwise — same factors, same error history — for
// every built-in updater, any tile size (including single-row and
// single-tile extremes), any prefetch depth, and multi-threaded
// kernels. This holds because every dense kernel partitions output
// elements and never the reduction (see internal/mat), so panel
// boundaries cannot reorder any floating-point sum, and every updater
// solves the rows of W independently, so updating them tile by tile
// inside the one pass an iteration makes cannot either — with
// regularization folded into every panel's subproblem and with the
// TolGrad stop test reading the accumulated Wᵀ·A included.
func TestOutOfCoreMatchesSequential(t *testing.T) {
	d := lowRankDense(60, 45, 5, 0.01, 11)
	a := WrapDense(d)

	variants := []struct {
		name string
		set  func(*Options)
	}{
		{"", func(*Options) {}},
		{"/reg", func(o *Options) { o.L2W, o.L1W, o.L2H, o.L1H = 0.1, 0.05, 0.2, 0.03 }},
		{"/tolgrad", func(o *Options) { o.TolGrad = 0.05 }},
	}
	for _, solver := range []SolverKind{SolverMU, SolverHALS, SolverPGD, SolverBPP} {
		for _, v := range variants {
			opts := Options{K: 5, MaxIter: 8, Seed: 7, Solver: solver, ComputeError: true}
			v.set(&opts)
			want, err := RunSequential(a, opts)
			if err != nil {
				t.Fatal(err)
			}
			cases := []struct {
				name     string
				tileRows int
				depth    int
				threads  int
			}{
				{"tile1", 1, 2, 0},
				{"tile7", 7, 2, 0},
				{"tile7/readerat", 7, 3, 0},
				{"single-tile", 60, 1, 0},
				{"tile16/threads3", 16, 2, 3},
			}
			for _, tc := range cases {
				t.Run(solver.String()+v.name+"/"+tc.name, func(t *testing.T) {
					f := openTileFile(t, writeTileFile(t, d, tc.tileRows))
					o := opts
					o.KernelThreads = tc.threads
					got, err := RunOutOfCore(f, tc.depth, o)
					if err != nil {
						t.Fatal(err)
					}
					if !got.W.Equal(want.W, 0) || !got.H.Equal(want.H, 0) {
						t.Fatalf("out-of-core factors differ from in-core (max diff W %g, H %g)",
							got.W.MaxDiff(want.W), got.H.MaxDiff(want.H))
					}
					if len(got.RelErr) != len(want.RelErr) {
						t.Fatalf("error history length %d vs %d", len(got.RelErr), len(want.RelErr))
					}
					for i := range got.RelErr {
						if got.RelErr[i] != want.RelErr[i] {
							t.Fatalf("error history diverges at iteration %d: %g vs %g",
								i, got.RelErr[i], want.RelErr[i])
						}
					}
					if got.Algorithm != "OutOfCore" {
						t.Fatalf("Algorithm = %q", got.Algorithm)
					}
					st := got.OOC
					if st == nil {
						t.Fatal("Result.OOC is nil")
					}
					// One pass over A per iteration and none at set-up; the
					// loader may have run ahead by at most its depth.
					if wantPasses := int64(got.Iterations); st.Passes != wantPasses {
						t.Fatalf("OOC.Passes = %d, want %d", st.Passes, wantPasses)
					}
					if max := st.Passes*int64(st.Tiles) + int64(st.Depth); st.TilesLoaded > max {
						t.Fatalf("OOC.TilesLoaded = %d, want ≤ %d", st.TilesLoaded, max)
					}
					if min := st.Passes * int64(60*45*8); st.BytesLoaded < min {
						t.Fatalf("OOC.BytesLoaded = %d, want ≥ %d", st.BytesLoaded, min)
					}
					if st.Tiles < 1 || st.TileRows < 1 {
						t.Fatalf("OOC stats incomplete: %+v", st)
					}
				})
			}
		}
	}
}

// TestFoldBlocksBitwise pins the W half's fold blocks (seqLayout.panel)
// to the bits of a whole panel: at k ≤ foldMaxK on an inline pool a
// dense panel is folded block by block, here three blocks with a
// ragged last one, while two kernel workers take the panel whole. Out
// of core, a tile height that is no multiple of the block puts a
// block edge inside each tile and a tile edge inside a block's span.
func TestFoldBlocksBitwise(t *testing.T) {
	const n = 2048
	step := foldBytes / (8 * n)
	m := 5 * step / 2
	if m/step < 2 || m%step == 0 {
		t.Fatalf("%d rows at %d a block: want three blocks, the last ragged", m, step)
	}
	d := lowRankDense(m, n, 4, 0.01, 41)
	path := writeTileFile(t, d, 2*step+17)
	for _, solver := range []SolverKind{SolverMU, SolverBPP} {
		t.Run(solver.String(), func(t *testing.T) {
			opts := Options{K: 4, MaxIter: 4, Seed: 5, Solver: solver, ComputeError: true, KernelThreads: 2}
			whole, err := RunSequential(WrapDense(d), opts)
			if err != nil {
				t.Fatal(err)
			}
			opts.KernelThreads = 1
			folded, err := RunSequential(WrapDense(d), opts)
			if err != nil {
				t.Fatal(err)
			}
			tiled, err := RunOutOfCore(openTileFile(t, path), 2, opts)
			if err != nil {
				t.Fatal(err)
			}
			for name, got := range map[string]*Result{"in core": folded, "out of core": tiled} {
				if !got.W.Equal(whole.W, 0) || !got.H.Equal(whole.H, 0) {
					t.Errorf("%s: folded factors differ from a whole panel's (max diff W %g, H %g)",
						name, got.W.MaxDiff(whole.W), got.H.MaxDiff(whole.H))
				}
				if !slices.Equal(got.RelErr, whole.RelErr) {
					t.Errorf("%s: error history %v, whole panel %v", name, got.RelErr, whole.RelErr)
				}
			}
		})
	}
}

// TestOutOfCoreResumeBitwise extends the bitwise-resume contract to
// the streaming driver: an out-of-core run stopped after a mid-stream
// checkpoint resumes to the exact factors of an uninterrupted run.
func TestOutOfCoreResumeBitwise(t *testing.T) {
	d := lowRankDense(24, 20, 3, 0.01, 5)
	path := writeTileFile(t, d, 7)
	base := Options{K: 3, MaxIter: 9, Seed: 7, ComputeError: true}

	f := openTileFile(t, path)
	uninterrupted, err := RunOutOfCore(f, 2, base)
	if err != nil {
		t.Fatal(err)
	}

	// Simulate the crash: checkpoint every 3 iterations, stop at 6.
	dir := t.TempDir()
	opts := base
	opts.CheckpointDir = dir
	opts.CheckpointEvery = 3
	opts.MaxIter = 6
	f2 := openTileFile(t, path)
	if _, err := RunOutOfCore(f2, 2, opts); err != nil {
		t.Fatal(err)
	}

	ck, err := LoadCheckpoint(dir)
	if err != nil {
		t.Fatal(err)
	}
	if ck.Meta.Algorithm != "OutOfCore" || ck.Meta.Iteration != 6 {
		t.Fatalf("checkpoint meta %+v, want OutOfCore at iteration 6", ck.Meta)
	}
	resumed, err := ck.Resume(base)
	if err != nil {
		t.Fatal(err)
	}
	f3 := openTileFile(t, path)
	res, err := RunOutOfCore(f3, 2, resumed)
	if err != nil {
		t.Fatal(err)
	}
	if !res.W.Equal(uninterrupted.W, 0) || !res.H.Equal(uninterrupted.H, 0) {
		t.Fatal("resumed out-of-core factors differ from the uninterrupted run")
	}

	// Cross-driver: the same checkpoint resumes the in-core driver to
	// the identical factors (the two drivers are interchangeable).
	seq, err := RunSequential(WrapDense(d), resumed)
	if err != nil {
		t.Fatal(err)
	}
	if !seq.W.Equal(uninterrupted.W, 0) || !seq.H.Equal(uninterrupted.H, 0) {
		t.Fatal("in-core resume of an out-of-core checkpoint diverges")
	}
}

// TestOutOfCoreReadFailureSurfaces: a tile file that shrinks under an
// open File — before the run or mid-pass — fails the run with an error
// that wraps io.ErrUnexpectedEOF and is stamped with the iteration
// whose pass hit the cut, instead of factorizing stale or partial
// panels or crashing the process. The run leaves its pipeline closed
// behind it: the loader goroutine is gone.
func TestOutOfCoreReadFailureSurfaces(t *testing.T) {
	// 8 tiles of 25 rows, 4,000 bytes each, so a cut leaves whole pages
	// of the payload missing, not just the tail of the last one.
	d := lowRankDense(200, 20, 3, 0.01, 5)
	const tileRows, tileBytes = 25, 25 * 20 * 8
	for _, tc := range []struct {
		name  string
		cutAt int   // iteration whose progress report cuts the file; -1 cuts it right after Open
		keep  int64 // payload bytes the cut leaves
	}{
		// The third pass (iteration index 2) is the first to read past the cut.
		{"mid-pass", 2, 8},
		// Two whole tiles remain; the first pass reads past them.
		{"after-open", -1, 2 * tileBytes},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tp := writeTileFile(t, d, tileRows)
			path := tp.path
			st, err := os.Stat(path)
			if err != nil {
				t.Fatal(err)
			}
			payload := st.Size() - 200*20*8 - 4 // the CRC trailer follows the payload
			f := openTileFile(t, tp)
			cut := func() {
				if err := os.Truncate(path, payload+tc.keep); err != nil {
					t.Error(err)
				}
			}
			opts := Options{K: 3, MaxIter: 6, Seed: 7}
			opts.Progress = func(p Progress) {
				if p.Iter == tc.cutAt {
					cut()
				}
			}
			if tc.cutAt < 0 {
				cut()
			}
			before := runtime.NumGoroutine()
			_, err = RunOutOfCore(f, 1, opts)
			if err == nil {
				t.Fatal("run succeeded on a truncated tile file")
			}
			if !errors.Is(err, io.ErrUnexpectedEOF) || !strings.Contains(err.Error(), "reading tile") || !strings.Contains(err.Error(), path) {
				t.Errorf("error %q does not wrap io.ErrUnexpectedEOF naming the tile and %s", err, path)
			}
			if want := fmt.Sprintf("failed at iteration %d", max(tc.cutAt, 0)); !strings.Contains(err.Error(), want) {
				t.Errorf("error %q is not stamped %q", err, want)
			}
			// Pipeline.Close waits for the loader, so it is gone on return.
			// A goroutine that has signalled its exit can still be
			// unwinding, so the count gets a bounded moment to settle.
			after := runtime.NumGoroutine()
			for deadline := time.Now().Add(time.Second); after > before && time.Now().Before(deadline); after = runtime.NumGoroutine() {
				runtime.Gosched()
			}
			if after > before {
				t.Errorf("%d goroutines after the failed run, %d before: the loader outlived it", after, before)
			}
		})
	}
}

// TestOutOfCoreStepZeroAllocs extends the zero-allocation gate to the
// streaming step: tile handoffs ride preallocated buffers and value
// channels, and the panel headers are reused, so a steady-state
// out-of-core iteration allocates nothing.
func TestOutOfCoreStepZeroAllocs(t *testing.T) {
	for _, leg := range []struct {
		name           string
		m, n, tileRows int
	}{
		{"readerat", 60, 45, 16},
		// Wide enough that a tile is folded in blocks (seqLayout.panel).
		{"fold", 40, 8192, 30},
	} {
		t.Run(leg.name, func(t *testing.T) {
			d := lowRankDense(leg.m, leg.n, 5, 0.01, 11)
			tm := newTiledMatrix(openTileFile(t, writeTileFile(t, d, leg.tileRows)), 2, true)
			defer tm.close()
			s := newSeqRank(t, tm, leg.m, leg.n, tm.norm, Options{K: 5, MaxIter: 200, Solver: SolverBPP, ComputeError: true})
			it := 0
			round := func() {
				if err := s.step(it); err != nil {
					t.Fatal(err)
				}
				it++
			}
			round() // warm up the workspace arena
			round()
			if allocs := testing.AllocsPerRun(10, round); allocs != 0 {
				t.Errorf("steady-state out-of-core step allocates %v times per iteration", allocs)
			}
		})
	}
}

// TestOutOfCoreReportAndMetrics: the run report carries the ooc
// section and an attached registry receives the I/O instruments.
func TestOutOfCoreReportAndMetrics(t *testing.T) {
	d := lowRankDense(30, 25, 3, 0.01, 9)
	f := openTileFile(t, writeTileFile(t, d, 8))
	reg := metrics.NewRegistry()
	opts := Options{K: 3, MaxIter: 4, Seed: 7, ComputeError: true, Metrics: reg}
	res, err := RunOutOfCore(f, 2, opts)
	if err != nil {
		t.Fatal(err)
	}
	ds := DescribeTiled("unit", f)
	if ds.Storage != "out-of-core" || ds.Rows != 30 || ds.Cols != 25 || ds.NNZ != 750 {
		t.Fatalf("DescribeTiled = %+v", ds)
	}
	rep := NewReport(ds, 1, opts, res, "")
	if rep.OOC == nil || rep.OOC.Passes != res.OOC.Passes {
		t.Fatalf("report ooc section = %+v", rep.OOC)
	}
	var sb strings.Builder
	if err := rep.WriteJSON(&sb); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"ooc"`, `"hidden_fraction"`, `"storage": "out-of-core"`} {
		if !strings.Contains(sb.String(), want) {
			t.Errorf("report JSON lacks %s", want)
		}
	}
	js, err := json.Marshal(reg.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"nmf.ooc.bytes_loaded", "nmf.ooc.load_ns", "nmf.ooc.hidden_fraction"} {
		if !strings.Contains(string(js), want) {
			t.Errorf("metrics snapshot lacks %s", want)
		}
	}
}
