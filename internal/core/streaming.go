package core

import (
	"fmt"

	"hpcnmf/internal/mat"
	"hpcnmf/internal/nnls"
)

// Streaming maintains a non-negative factorization of a sliding
// window of data columns, the scenario the paper describes for video
// (§6.1.1): "only the last minute or two of video is taken from the
// live video camera. The algorithm to incrementally adjust the NMF
// based on the new streaming video is presented in [12]." New columns
// are first projected onto the current basis (one NNLS solve with W
// fixed — cheap, via the same Projector the serving layer uses), then
// a configurable number of full ANLS refinement sweeps adapt the basis
// to the evicting window.
//
// The window lives in a preallocated m×window ring buffer: a Push
// writes the new columns into the slots vacated by the evicted ones,
// so the steady state copies only the new data — no window-sized
// re-stack per push — and, with a workspace-aware solver, performs no
// heap allocation at all (TestStreamingPushZeroAllocs). The ANLS
// refinement is ring-order-oblivious: HHᵀ and AHᵀ are sums over
// columns, so the rotated slot order changes nothing but float
// summation order, and unoccupied slots hold zero columns, which
// contribute nothing.
type Streaming struct {
	m, k   int
	window int
	sweeps int
	solver nnls.Solver
	pushes int

	// Ring state: logical column j (0 = oldest retained) lives in slot
	// (head+j) mod window of data and h. Slots outside the retained
	// range are zero in both matrices.
	count int // retained columns, ≤ window
	head  int // slot of the oldest retained column

	data *mat.Dense // m×window ring storage
	h    *mat.Dense // k×window coefficients, same slot order
	w    *mat.Dense // m×k basis
	a    Matrix     // WrapDense(data), wrapped once

	proj *Projector
	ctx  *nnls.Context
	ws   *mat.Workspace

	// Refinement buffers, allocated once.
	ht    *mat.Dense // window×k = Hᵀ, refreshed where it is read
	hGram *mat.Dense // k×k = H·Hᵀ
	aht   *mat.Dense // m×k = A·Hᵀ
	fw    *mat.Dense // k×m = (A·Hᵀ)ᵀ
	wt    *mat.Dense // k×m = Wᵀ, warm start and destination of the W solve
	wta   *mat.Dense // k×window = Wᵀ·A
}

// StreamingOptions configures a Streaming factorizer.
type StreamingOptions struct {
	// K is the factorization rank.
	K int
	// Window is the maximum number of columns retained (> 0).
	Window int
	// RefineSweeps is the number of ANLS sweeps run after each Push
	// to adapt the basis (default 1; 0 keeps the basis frozen and
	// only projects, which tracks a stationary background for free).
	RefineSweeps int
	// Solver selects the local NLS method (default BPP). The inexact
	// sweep solvers (MU, HALS, PGD) are the ones whose steady-state
	// pushes are allocation-free.
	Solver SolverKind
	// SolverSweeps is the inner sweep count for MU/HALS/PGD (default 1).
	SolverSweeps int
	// Seed drives the deterministic basis initialization.
	Seed uint64
}

// NewStreaming creates a streaming factorizer for m-row columns.
func NewStreaming(m int, opts StreamingOptions) (*Streaming, error) {
	if opts.K < 1 {
		return nil, fmt.Errorf("core: streaming rank %d, want ≥ 1", opts.K)
	}
	if opts.Window < opts.K {
		return nil, fmt.Errorf("core: streaming window %d must be ≥ K=%d", opts.Window, opts.K)
	}
	if m < opts.K {
		return nil, fmt.Errorf("core: %d rows < rank %d", m, opts.K)
	}
	if !opts.Solver.known() {
		return nil, fmt.Errorf("core: unknown solver %v", opts.Solver)
	}
	sweeps, innerSweeps := max(opts.RefineSweeps, 0), max(opts.SolverSweeps, 1)
	k, window := opts.K, opts.Window
	w := initW(m, k, 0, opts.Seed)
	proj, err := NewProjector(w, opts.Solver.New(innerSweeps), nil)
	if err != nil {
		return nil, err
	}
	data := mat.NewDense(m, window)
	s := &Streaming{
		m:      m,
		k:      k,
		window: window,
		sweeps: sweeps,
		solver: opts.Solver.New(innerSweeps),
		data:   data,
		h:      mat.NewDense(k, window),
		w:      w,
		a:      WrapDense(data),
		proj:   proj,
		ws:     mat.NewWorkspace(),
		ht:     mat.NewDense(window, k),
		hGram:  mat.NewDense(k, k),
		aht:    mat.NewDense(m, k),
		fw:     mat.NewDense(k, m),
		wt:     mat.NewDense(k, m),
		wta:    mat.NewDense(k, window),
	}
	s.ctx = &nnls.Context{WS: s.ws}
	s.w.TTo(s.wt)
	return s, nil
}

// Push appends new columns (an m×c matrix, newest last), evicting the
// oldest columns beyond the window: the projection writes the new
// coefficients straight into the ring slots the evicted columns
// vacate, then the configured refinement sweeps run over the retained
// window.
func (s *Streaming) Push(cols *mat.Dense) error {
	if cols.Rows != s.m {
		return fmt.Errorf("core: pushed columns have %d rows, want %d", cols.Rows, s.m)
	}
	c := cols.Cols
	if c == 0 {
		return nil
	}
	if c > s.window {
		// Only the newest window columns can be retained; the older
		// ones would be projected and immediately evicted.
		cols = cols.SubmatrixCols(c-s.window, c)
		c = s.window
	}

	// Project new columns onto the current basis into a contiguous
	// scratch block, then scatter data and coefficients into the ring.
	hNew := s.ws.Get(s.k, c)
	if _, err := s.proj.ProjectInto(hNew, cols, nil); err != nil {
		s.ws.Put(hNew)
		return fmt.Errorf("core: streaming projection failed: %w", err)
	}
	drop := max(s.count+c-s.window, 0)
	// The c write slots are exactly the empty tail plus the dropped
	// oldest slots, so no explicit zeroing is ever needed.
	for j := 0; j < c; j++ {
		slot := (s.head + s.count + j) % s.window
		for i := 0; i < s.m; i++ {
			s.data.Data[i*s.window+slot] = cols.Data[i*c+j]
		}
		for i := 0; i < s.k; i++ {
			s.h.Data[i*s.window+slot] = hNew.Data[i*c+j]
		}
	}
	s.ws.Put(hNew)
	s.head = (s.head + drop) % s.window
	s.count += c - drop
	s.pushes++

	// Refinement: standard ANLS sweeps over the retained window,
	// warm-started from the current factors. The rank-deficiency
	// safeguard (solveDamped) stands in for the batch drivers'
	// non-finite-factor error: a degenerate window degrades into a
	// damped solve or an error, never a panic.
	for sweep := 0; sweep < s.sweeps; sweep++ {
		s.h.TTo(s.ht)
		mat.ParGramTo(s.hGram, s.ht, nil)
		mulBtInto(s.aht, s.a, s.ht, s.ws, nil)
		s.aht.TTo(s.fw)
		if _, err := solveDamped(s.solver, s.ctx, s.hGram, s.fw, s.wt, s.wt); err != nil {
			return fmt.Errorf("core: streaming W refinement failed: %w", err)
		}
		s.wt.TTo(s.w)
		s.proj.RefreshGram()
		mulAtBInto(s.wta, s.a, s.w, s.ws, nil)
		if _, err := solveDamped(s.solver, s.ctx, s.proj.Gram(), s.wta, s.h, s.h); err != nil {
			return fmt.Errorf("core: streaming H refinement failed: %w", err)
		}
	}
	return nil
}

// Len reports the number of columns currently retained.
func (s *Streaming) Len() int { return s.count }

// slot maps logical column j (0 = oldest) to its ring slot.
func (s *Streaming) slot(j int) int { return (s.head + j) % s.window }

// Factors returns (copies of) the current basis W (m×k) and window
// coefficients H (k×Len), columns in age order (oldest first).
func (s *Streaming) Factors() (w, h *mat.Dense) {
	h = mat.NewDense(s.k, s.count)
	for j := 0; j < s.count; j++ {
		slot := s.slot(j)
		for i := 0; i < s.k; i++ {
			h.Data[i*s.count+j] = s.h.Data[i*s.window+slot]
		}
	}
	return s.w.Clone(), h
}

// RelErr returns ‖A_window − W·H‖_F / ‖A_window‖_F for the retained
// window (0 for an empty window). Unoccupied ring slots are zero
// columns in both A and H and contribute nothing to any term.
func (s *Streaming) RelErr() float64 {
	if s.count == 0 {
		return 0
	}
	mulAtBInto(s.wta, s.a, s.w, s.ws, nil)
	s.h.TTo(s.ht)
	mat.ParGramTo(s.hGram, s.ht, nil)
	return relErrFrom(s.data.SquaredFrobeniusNorm(), mat.Dot(s.wta, s.h), mat.Dot(s.proj.Gram(), s.hGram))
}

// Residual returns the reconstruction residual of the j-th retained
// column (newest = Len()-1): the per-pixel foreground signal in the
// background-subtraction use case.
func (s *Streaming) Residual(j int) []float64 {
	if j < 0 || j >= s.count {
		panic(fmt.Sprintf("core: residual column %d of %d", j, s.count))
	}
	slot := s.slot(j)
	out := make([]float64, s.m)
	for i := 0; i < s.m; i++ {
		rec := 0.0
		for t := 0; t < s.k; t++ {
			rec += s.w.At(i, t) * s.h.At(t, slot)
		}
		out[i] = s.data.At(i, slot) - rec
	}
	return out
}

// ForegroundEnergy returns ‖residual(j)‖² — a scalar motion signal.
func (s *Streaming) ForegroundEnergy(j int) float64 {
	r := s.Residual(j)
	e := 0.0
	for _, v := range r {
		e += v * v
	}
	return e
}
