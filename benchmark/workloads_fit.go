package main

import (
	"fmt"
	"path/filepath"
	"time"

	"hpcnmf"
	"hpcnmf/internal/datasets"
	"hpcnmf/internal/mat"
	"hpcnmf/internal/ooc"
	"hpcnmf/internal/par"
)

// Problem sizes. The timed section of a run is twenty seconds and the
// host's noise wants about twenty fits per arm behind each reported
// time, so a round of three fits and a projection burst has to take
// about a second on two CPUs; these are the largest inputs that do, at
// three iterations (README "Sizing"). Every matrix is many times the
// 2 MiB L2; none can be a multiple of the last-level cache.
type fitSize struct{ m, n, k, iters int }

var (
	denseSize   = fitSize{m: 2880, n: 1920, k: 50, iters: 3} // DSYN, 42 MiB
	sparseSize  = fitSize{m: 12000, n: 12000, k: 20, iters: 3}
	oocSize     = fitSize{m: 4000, n: 3200, k: 16, iters: 3} // DSYN, 98 MiB tile file, 13 tiles
	smokeDense  = fitSize{m: 240, n: 160, k: 8, iters: 3}
	smokeSparse = fitSize{m: 600, n: 600, k: 6, iters: 3}
	smokeOOC    = fitSize{m: 300, n: 200, k: 4, iters: 3}
)

const projectionColumns = 64

// genDSYN generates the dense synthetic matrix under a span and
// returns it with the seconds it took.
func genDSYN(e *env, m, n int) (*mat.Dense, float64) {
	sp := e.rec.begin("setup/datasets.gen", e.cur, 0)
	defer sp.end()
	t := time.Now()
	d := datasets.DSYN(m, n, e.cfg.seed)
	return d, time.Since(t).Seconds()
}

func denseProducts(d *mat.Dense) products {
	return products{
		layer: "mat", htName: "mat.mulabt", atbName: "mat.mulatb",
		nnz: d.Rows * d.Cols, bytesA: 8 * int64(d.Rows) * int64(d.Cols),
		mulHt:  func(dst, h *mat.Dense, p *par.Pool) { mat.ParMulABtTo(dst, d, h, p) },
		mulAtB: func(dst, w *mat.Dense, p *par.Pool) { mat.ParMulAtBTo(dst, w, d, p) },
	}
}

// ---------------------------------------------------------------- dense_mu

type denseMU struct{ fc *fitCase }

func newDenseMU() workload { return &denseMU{} }

func (w *denseMU) setup(e *env) error {
	sz := denseSize
	if e.cfg.smoke {
		sz = smokeDense
	}
	d, gen := genDSYN(e, sz.m, sz.n)
	a := hpcnmf.WrapDense(d)
	w.fc = &fitCase{
		opts:    hpcnmf.Options{K: sz.k, MaxIter: sz.iters, Solver: hpcnmf.SolverMU, ComputeError: true, Seed: fitSeed},
		a:       a,
		dense:   d,
		mono:    true,
		arms:    inCoreArms(a),
		cols:    denseColumns(d, projectionColumns),
		twoRank: true,
		prod:    denseProducts(d),
		genS:    gen,
	}
	return w.fc.warm(e)
}

func (w *denseMU) teardown() { w.fc = nil }

func (w *denseMU) measure(e *env, budget time.Duration) error { return w.fc.measure(e, budget) }

func (w *denseMU) layers(e *env, budget time.Duration) error { return w.fc.layers(e, budget) }

// -------------------------------------------------------------- sparse_bpp

type sparseBPP struct{ fc *fitCase }

func newSparseBPP() workload { return &sparseBPP{} }

func (w *sparseBPP) setup(e *env) error {
	sz := sparseSize
	if e.cfg.smoke {
		sz = smokeSparse
	}
	sp := e.rec.begin("setup/datasets.gen", e.cur, 0)
	t := time.Now()
	s := datasets.Webbase(sz.m, 3, e.cfg.seed)
	gen := time.Since(t).Seconds()
	sp.end()
	a := hpcnmf.WrapSparse(s)
	cols := make([]*mat.Dense, projectionColumns)
	for c := range cols {
		j := c * s.Cols / len(cols)
		cols[c] = s.Submatrix(0, s.Rows, j, j+1).ToDense()
	}
	ht := mat.NewDense(s.Cols, sz.k) // the CSR kernel streams Hᵀ by rows
	ws := mat.NewWorkspace()
	w.fc = &fitCase{
		opts:    hpcnmf.Options{K: sz.k, MaxIter: sz.iters, Solver: hpcnmf.SolverBPP, ComputeError: true, Seed: fitSeed},
		a:       a,
		arms:    inCoreArms(a),
		cols:    cols,
		twoRank: true,
		prod: products{
			layer: "sparse", htName: "sparse.mulbt", atbName: "sparse.mulwta",
			nnz: s.NNZ(), bytesA: 12*int64(s.NNZ()) + 8*int64(s.Rows+1),
			prepHt: func(h *mat.Dense) { h.TTo(ht) },
			mulHt:  func(dst, _ *mat.Dense, p *par.Pool) { s.MulBtTo(dst, ht, p) },
			mulAtB: func(dst, wm *mat.Dense, p *par.Pool) { s.MulWtAToWS(dst, wm, p, ws) },
		},
		genS: gen,
	}
	return w.fc.warm(e)
}

func (w *sparseBPP) teardown() { w.fc = nil }

func (w *sparseBPP) measure(e *env, budget time.Duration) error { return w.fc.measure(e, budget) }

func (w *sparseBPP) layers(e *env, budget time.Duration) error { return w.fc.layers(e, budget) }

// ---------------------------------------------------------------- ooc_lowk

type oocLowK struct {
	fc       *fitCase
	file     *hpcnmf.TileFile
	path     string
	warmed   bool
	writeMBs float64
}

func newOOCLowK() workload { return &oocLowK{} }

// oocDepth is the prefetch depth of every out-of-core fit: double
// buffering, the library default.
const oocDepth = 2

func (w *oocLowK) setup(e *env) error {
	sz := oocSize
	if e.cfg.smoke {
		sz = smokeOOC
	}
	w.path = filepath.Join(e.tmp, "dsyn.tiles")
	d, gen := genDSYN(e, sz.m, sz.n)
	if !w.warmed {
		// The first write of fresh blocks on a virtual disk runs at a
		// tenth of the speed of every later one (the host allocates
		// backing store). That is the disk's cost, not the writer's,
		// and it would make setup_s a coin toss; one untimed write
		// takes it before the clock of the later set-ups starts.
		sp := e.rec.begin("setup/disk-first-touch", e.cur, 0)
		err := hpcnmf.WriteTiled(w.path, d, 0)
		sp.end()
		if err != nil {
			return err
		}
		w.warmed = true
	}
	sp := e.rec.begin("setup/ooc.write", e.cur, 0)
	t := time.Now()
	tw, err := ooc.Create(w.path, sz.m, sz.n, 0)
	if err != nil {
		return err
	}
	for i := 0; i < d.Rows; i++ {
		if err := tw.WriteRow(d.Row(i)); err != nil {
			return err
		}
	}
	if err := tw.Close(); err != nil {
		return err
	}
	w.writeMBs = float64(8*sz.m*sz.n) / 1e6 / time.Since(t).Seconds()
	sp.end()
	w.file, err = hpcnmf.OpenTiledBackend(w.path, hpcnmf.TileBackendReaderAt)
	if err != nil {
		return err
	}
	f := w.file
	a := hpcnmf.WrapDense(d)
	w.fc = &fitCase{
		opts:  hpcnmf.Options{K: sz.k, MaxIter: sz.iters, Solver: hpcnmf.SolverMU, ComputeError: true, Seed: fitSeed},
		a:     a,
		dense: d,
		mono:  true,
		arms: [3]fitArm{
			{"fit_s", func(o hpcnmf.Options) (*hpcnmf.Result, error) {
				return hpcnmf.RunOutOfCore(f, oocDepth, withThreads(o, 1))
			}},
			{"fit_seq_s", func(o hpcnmf.Options) (*hpcnmf.Result, error) { return hpcnmf.Run(a, withThreads(o, 1)) }},
			{"fit_kt_s", func(o hpcnmf.Options) (*hpcnmf.Result, error) {
				return hpcnmf.RunOutOfCore(f, oocDepth, withThreads(o, 2))
			}},
		},
		cols: denseColumns(d, projectionColumns),
		prod: denseProducts(d),
		genS: gen,
	}
	return w.fc.warm(e)
}

func (w *oocLowK) teardown() {
	if w.file != nil {
		w.file.Close()
		w.file = nil
	}
	w.fc = nil
}

func (w *oocLowK) measure(e *env, budget time.Duration) error { return w.fc.measure(e, budget) }

func (w *oocLowK) layers(e *env, budget time.Duration) error {
	if err := w.fc.layers(e, budget); err != nil {
		return err
	}
	fc, f := w.fc, w.file
	perCall := replayBudget(budget)
	k := fc.opts.K

	// Reported by the program: the tile-I/O account of one streamed fit,
	// beside one in-core fit of the same matrix.
	res, oocS := fc.timedFit(e, fc.arms[0], fc.opts, 10)
	inCore, inS := fc.timedFit(e, fc.arms[1], fc.opts, 10)
	if res == nil || inCore == nil || res.OOC == nil {
		return fmt.Errorf("out-of-core accounting fit failed")
	}
	e.check(res.RelErr[len(res.RelErr)-1] == inCore.RelErr[len(inCore.RelErr)-1],
		"out-of-core and in-core fits end at different errors")
	e.set("ooc.hidden_frac", res.OOC.HiddenFraction)
	e.set("ooc.wait_share", res.OOC.WaitSeconds/oocS)
	e.set("ooc.bytes_per_fit", float64(res.OOC.BytesLoaded))
	e.set("ooc.tile_loads", float64(res.OOC.TilesLoaded))
	e.set("ooc.vs_incore", oocS/inS)
	e.set("ooc.write_mbs", w.writeMBs)

	// Replayed: one full pass of the prefetch pipeline with no compute.
	// Tiles come from the page cache, so this is the read path's CPU
	// cost (syscall, copy, decode), not the device.
	var bytes int64
	sec := e.replay("ooc.pipeline-pass", perCall, func() {
		pipe := ooc.NewPipeline(f, oocDepth)
		defer pipe.Close()
		bytes = 0
		for t := 0; t < f.Tiles(); t++ {
			p, err := pipe.Next()
			if err != nil {
				e.check(false, "pipeline pass: %v", err)
				return
			}
			bytes += 8 * int64(len(p.Data))
			pipe.Release(p)
		}
	})
	e.set("ooc.read_gbs", float64(bytes)/sec/1e9)

	// Replayed: the two dense kernels on one row panel, the thin shape
	// the streaming driver feeds them.
	r0, r1 := f.TileBounds(0)
	rows, n := r1-r0, fc.dense.Cols
	panel := fc.dense.SubmatrixRows(r0, r1)
	out := mat.NewDense(rows, k)
	acc := mat.NewDense(k, n)
	wRows := res.W.SubmatrixRows(r0, r1)
	flops := 2 * float64(rows) * float64(n) * float64(k)
	sec = e.replay("mat.panel_mulabt", perCall, func() { mat.ParMulABtTo(out, panel, res.H, nil) })
	e.set("mat.panel_mulabt_gflops", flops/sec/1e9)
	sec = e.replay("mat.panel_mulatb", perCall, func() { mat.ParMulAtBAddTo(acc, wRows, panel, nil) })
	e.set("mat.panel_mulatb_gflops", flops/sec/1e9)
	return nil
}
