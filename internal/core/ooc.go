package core

import (
	"time"

	"hpcnmf/internal/mat"
	"hpcnmf/internal/ooc"
	"hpcnmf/internal/trace"
)

// OOCStats is the I/O accounting of an out-of-core run, attached to
// Result.OOC and the run report. LoadSeconds is time the prefetch
// loader spent reading tiles; WaitSeconds is time the iteration loop
// was blocked waiting for one; HiddenFraction = 1 − wait/load is the
// share of tile I/O overlapped with compute.
type OOCStats struct {
	TileRows       int     `json:"tile_rows"`
	Tiles          int     `json:"tiles"`
	Depth          int     `json:"depth"`
	Passes         int64   `json:"passes"`
	TilesLoaded    int64   `json:"tiles_loaded"`
	BytesLoaded    int64   `json:"bytes_loaded"`
	LoadSeconds    float64 `json:"load_seconds"`
	WaitSeconds    float64 `json:"wait_seconds"`
	HiddenFraction float64 `json:"hidden_fraction"`
}

// tiledMatrix is the out-of-core productSource of seqLayout: a pass
// hands out the tiles of a tile file's prefetch pipeline, one row
// panel each, in file order. The panel header is reused across tiles
// so a steady-state pass allocates nothing.
type tiledMatrix struct {
	f      *ooc.File
	pipe   *ooc.Pipeline
	tc     *trace.Tracer // the rank's tracer, for the TileStream span
	sumSq  float64       // the loader's Σv², ‖A‖²_F from the first pass's last tile on
	passes int64

	hdr   mat.Dense // view of the resident tile (rows×n)
	panel Matrix    // hdr as the Matrix a visit receives
}

// newTiledMatrix starts the prefetch pipeline. With norm its loader
// carries Σv² across the first pass's tiles — the element order of the
// in-core row-major sum, so the objective history matches bitwise —
// and eachPanel keeps it as the tiles arrive. The caller points tc at
// the rank that will run the passes.
func newTiledMatrix(f *ooc.File, depth int, norm bool) *tiledMatrix {
	tm := &tiledMatrix{f: f, pipe: ooc.NewNormPipeline(f, depth, norm)}
	tm.panel = WrapDense(&tm.hdr)
	return tm
}

// norm is the out-of-core future of ‖A‖²_F: the loader's sum, whole
// once the first pass has handed over its last tile, which the first
// W half does before step calls it.
func (tm *tiledMatrix) norm() float64 { return tm.sumSq }

// close stops the pipeline (the File stays open; the caller owns it).
func (tm *tiledMatrix) close() { tm.pipe.Close() }

// eachPanel visits the tiles of one pass under a TileStream trace
// span, which therefore encloses the phases the visits time. A tile
// goes back to the loader as soon as its visit returns. The wait is
// the pipeline's own clock over the pass, never timed a second time.
func (tm *tiledMatrix) eachPanel(visit func(a Matrix, r0 int) error) (time.Duration, error) {
	tiles, n := tm.f.Tiles(), int(tm.f.Header().Cols)
	sp := tm.tc.BeginArg(trace.CatPhase, "TileStream", "tiles", int64(tiles))
	defer sp.End()
	wait0 := tm.pipe.Stats().Wait
	for t := 0; t < tiles; t++ {
		p, err := tm.pipe.Next()
		if err != nil {
			return 0, err
		}
		tm.sumSq = p.SumSquares
		tm.hdr = mat.Dense{Rows: p.Row1 - p.Row0, Cols: n, Data: p.Data}
		err = visit(tm.panel, p.Row0)
		tm.pipe.Release(p)
		if err != nil {
			return 0, err
		}
	}
	tm.passes++
	return tm.pipe.Stats().Wait - wait0, nil
}

// stats snapshots the run's I/O accounting.
func (tm *tiledMatrix) stats(depth int) *OOCStats {
	st := tm.pipe.Stats()
	return &OOCStats{
		TileRows:       int(tm.f.Header().TileRows),
		Tiles:          tm.f.Tiles(),
		Depth:          depth,
		Passes:         tm.passes,
		TilesLoaded:    st.TilesLoaded,
		BytesLoaded:    st.BytesLoaded,
		LoadSeconds:    st.Load.Seconds(),
		WaitSeconds:    st.Wait.Seconds(),
		HiddenFraction: st.HiddenFraction(),
	}
}

// DescribeTiled builds the DatasetInfo for an out-of-core tile file
// without touching its payload.
func DescribeTiled(name string, f *ooc.File) DatasetInfo {
	m, n := f.Dims()
	return DatasetInfo{Name: name, Rows: m, Cols: n, NNZ: int64(m) * int64(n), Storage: "out-of-core"}
}

// RunOutOfCore factorizes a tile file with the sequential ANLS
// skeleton, streaming A in row panels through the prefetch pipeline.
// An iteration reads A once: for each tile t it computes A_t·Hᵀ,
// updates rows t of W against the shared HHᵀ — the rows of W are
// independent NLS problems (§4) — and, with the tile still resident,
// adds W_tᵀ·A_t and W_tᵀ·W_t to the H update's inputs. The factors and
// all k-sized intermediates stay in memory. Tile t+1 loads while the
// kernels consume tile t, so with compute-bound tiles the I/O is fully
// hidden (Result.OOC reports the measured split). With ComputeError the
// loader also sums ‖A‖²_F while it reads the first pass.
//
// Because every dense kernel partitions output elements and never
// the reduction, and every built-in updater treats the columns of its
// iterate independently (the Updater contract), the run is bitwise
// identical to RunSequential on the same matrix — same factors, same
// error history — for every updater (MU, HALS, PGD, BPP), any tile
// size, and any KernelThreads. The resume semantics match too: a
// checkpointed out-of-core run continues bitwise-identically to an
// uninterrupted one.
//
// depth is the prefetch depth in tiles (≤ 0 selects
// ooc.DefaultDepth); peak resident payload is about
// (depth+1)·TileRows·Cols·8 bytes.
func RunOutOfCore(f *ooc.File, depth int, opts Options) (*Result, error) {
	if depth < 1 {
		depth = ooc.DefaultDepth
	}
	m, n := f.Dims()
	opts, err := opts.withDefaults(m, n)
	if err != nil {
		return nil, err
	}
	tm := newTiledMatrix(f, depth, opts.ComputeError)
	defer tm.close()
	res, err := runLayout("OutOfCore", m, n, tm.norm, opts, 0, func(s *rankState) layout {
		tm.tc = s.led.Tracer
		return newSeqLayout(s, tm, m, n)
	})
	if err != nil {
		return nil, err
	}
	res.OOC = tm.stats(depth)
	if reg := opts.Metrics; reg != nil {
		st := res.OOC
		reg.Counter("nmf.ooc.tiles_loaded").Add(st.TilesLoaded)
		reg.Counter("nmf.ooc.bytes_loaded").Add(st.BytesLoaded)
		// Round, not truncate: ns → seconds → ns can land a hair under
		// the integer, and wait_ns must equal the ledger's TileWait.
		reg.Counter("nmf.ooc.load_ns").Add(int64(st.LoadSeconds*1e9 + 0.5))
		reg.Counter("nmf.ooc.wait_ns").Add(int64(st.WaitSeconds*1e9 + 0.5))
		reg.Gauge("nmf.ooc.hidden_fraction").Set(st.HiddenFraction)
	}
	return res, nil
}
