package core

import (
	"fmt"

	"hpcnmf/internal/mat"
	"hpcnmf/internal/ooc"
	"hpcnmf/internal/par"
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
	Backend        string  `json:"backend"`
	Passes         int64   `json:"passes"`
	TilesLoaded    int64   `json:"tiles_loaded"`
	BytesLoaded    int64   `json:"bytes_loaded"`
	LoadSeconds    float64 `json:"load_seconds"`
	WaitSeconds    float64 `json:"wait_seconds"`
	HiddenFraction float64 `json:"hidden_fraction"`
}

// tiledMatrix is the out-of-core productSource of seqLayout: the two
// factor products are computed in row-panel passes over a tile file's
// prefetch pipeline; because every dense
// kernel partitions output elements and never the reduction (see
// internal/mat), the streamed products are bitwise identical to the
// in-core ones at any tile size and thread count. Panel and slice
// headers are reused across tiles so a steady-state pass allocates
// nothing.
type tiledMatrix struct {
	f      *ooc.File
	pipe   *ooc.Pipeline
	norm2  float64
	passes int64

	panelHdr  mat.Dense // view of the resident tile (rows×n)
	factorHdr mat.Dense // view of the W rows matching the tile (rows×k)
	outHdr    mat.Dense // view of the A·Hᵀ output rows (rows×k)
}

// newTiledMatrix starts the prefetch pipeline and runs the one-time
// ‖A‖²_F pass (same element order as the in-core row-major sum, so
// the objective history matches bitwise).
func newTiledMatrix(f *ooc.File, depth int) (*tiledMatrix, error) {
	tm := &tiledMatrix{f: f, pipe: ooc.NewPipeline(f, depth)}
	var sum float64
	for t := 0; t < f.Tiles(); t++ {
		p, err := tm.pipe.Next()
		if err != nil {
			tm.close()
			return nil, err
		}
		for _, v := range p.Data {
			sum += v * v
		}
		tm.pipe.Release(p)
	}
	tm.passes++
	tm.norm2 = sum
	return tm, nil
}

// close stops the pipeline (the File stays open; the caller owns it).
func (tm *tiledMatrix) close() { tm.pipe.Close() }

// mulABt computes dst = A·Hᵀ (m×k) in one pass: H is packed for
// the tile kernel once (buffer from ws), then each panel fills its own
// disjoint output rows, so tiling cannot change any result bit. The
// pass is wrapped in a TileStream trace span nested under the caller's
// MM phase.
func (tm *tiledMatrix) mulABt(dst, h *mat.Dense, ws *mat.Workspace, pool *par.Pool, tc *trace.Tracer) error {
	k := h.Rows
	n := int(tm.f.Header().Cols)
	sp := tc.BeginArg(trace.CatPhase, "TileStream", "tiles", int64(tm.f.Tiles()))
	pk := mat.PackRows(ws, h)
	for t := 0; t < tm.f.Tiles(); t++ {
		p, err := tm.pipe.Next()
		if err != nil {
			pk.Release(ws)
			sp.End()
			return err
		}
		rows := p.Row1 - p.Row0
		tm.panelHdr = mat.Dense{Rows: rows, Cols: n, Data: p.Data}
		tm.outHdr = mat.Dense{Rows: rows, Cols: k, Data: dst.Data[p.Row0*k : p.Row1*k]}
		mat.ParMulPackedTo(&tm.outHdr, &tm.panelHdr, pk, pool)
		tm.pipe.Release(p)
	}
	pk.Release(ws)
	sp.End()
	tm.passes++
	return nil
}

// mulAtB computes dst = Wᵀ·A (k×n) in one pass, accumulating
// panel products in ascending row order — exactly the reduction order
// of the in-core kernel (mat.ParMulAtBTo partitions output columns,
// and each output element sums reduction rows in ascending order), so
// the result is bitwise identical at any tile boundary.
func (tm *tiledMatrix) mulAtB(dst, w *mat.Dense, _ *mat.Workspace, pool *par.Pool, tc *trace.Tracer) error {
	k := w.Cols
	n := int(tm.f.Header().Cols)
	sp := tc.BeginArg(trace.CatPhase, "TileStream", "tiles", int64(tm.f.Tiles()))
	dst.Zero()
	for t := 0; t < tm.f.Tiles(); t++ {
		p, err := tm.pipe.Next()
		if err != nil {
			sp.End()
			return err
		}
		rows := p.Row1 - p.Row0
		tm.panelHdr = mat.Dense{Rows: rows, Cols: n, Data: p.Data}
		tm.factorHdr = mat.Dense{Rows: rows, Cols: k, Data: w.Data[p.Row0*k : p.Row1*k]}
		mat.ParMulAtBAddTo(dst, &tm.factorHdr, &tm.panelHdr, pool)
		tm.pipe.Release(p)
	}
	sp.End()
	tm.passes++
	return nil
}

// stats snapshots the run's I/O accounting.
func (tm *tiledMatrix) stats(depth int) *OOCStats {
	st := tm.pipe.Stats()
	return &OOCStats{
		TileRows:       int(tm.f.Header().TileRows),
		Tiles:          tm.f.Tiles(),
		Depth:          depth,
		Backend:        tm.f.BackendName(),
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
// skeleton, streaming A in row panels through the prefetch pipeline:
// per iteration, one pass computes A·Hᵀ for the W update and one pass
// computes Wᵀ·A for the H update, while the factors and all k-sized
// intermediates stay in memory. Tile t+1 loads while the kernels
// consume tile t, so with compute-bound tiles the I/O is fully
// hidden (Result.OOC reports the measured split).
//
// Because every dense kernel partitions output elements and never
// the reduction, the run is bitwise identical to RunSequential on the
// same matrix — same factors, same error history — for every updater
// (MU, HALS, PGD, BPP), any tile size, and any KernelThreads. The
// resume semantics match too: a checkpointed out-of-core run
// continues bitwise-identically to an uninterrupted one.
//
// depth is the prefetch depth in tiles (≤ 0 selects
// ooc.DefaultDepth); peak resident payload is about
// (depth+1)·TileRows·Cols·8 bytes with the readerat backend.
func RunOutOfCore(f *ooc.File, depth int, opts Options) (*Result, error) {
	if depth < 1 {
		depth = ooc.DefaultDepth
	}
	m, n := f.Dims()
	opts, err := opts.withDefaults(m, n)
	if err != nil {
		return nil, err
	}
	tm, err := newTiledMatrix(f, depth)
	if err != nil {
		return nil, fmt.Errorf("core: out-of-core setup: %w", err)
	}
	defer tm.close()
	res, err := runLayout("OutOfCore", m, n, tm.norm2, opts, 0, func(s *rankState) layout {
		return newSeqLayout(s, tm, m, n, int64(m)*int64(n))
	})
	if err != nil {
		return nil, err
	}
	res.OOC = tm.stats(depth)
	if reg := opts.Metrics; reg != nil {
		st := res.OOC
		reg.Counter("nmf.ooc.tiles_loaded").Add(st.TilesLoaded)
		reg.Counter("nmf.ooc.bytes_loaded").Add(st.BytesLoaded)
		reg.Counter("nmf.ooc.load_ns").Add(int64(st.LoadSeconds * 1e9))
		reg.Counter("nmf.ooc.wait_ns").Add(int64(st.WaitSeconds * 1e9))
		reg.Gauge("nmf.ooc.hidden_fraction").Set(st.HiddenFraction)
	}
	return res, nil
}
