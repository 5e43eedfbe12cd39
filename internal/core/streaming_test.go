package core

import (
	"testing"

	"hpcnmf/internal/mat"
	"hpcnmf/internal/rng"
)

// streamColumns generates columns from basis b (m×k) with random
// non-negative coefficients plus noise.
func streamColumns(b *mat.Dense, c int, noise float64, s *rng.Stream) *mat.Dense {
	coef := mat.NewDense(b.Cols, c)
	coef.RandomUniform(s)
	out := mul(b, coef)
	for i := range out.Data {
		v := out.Data[i] + noise*s.Normal()
		if v < 0 {
			v = 0
		}
		out.Data[i] = v
	}
	return out
}

func TestStreamingValidation(t *testing.T) {
	if _, err := NewStreaming(10, StreamingOptions{K: 0, Window: 5}); err == nil {
		t.Fatal("K=0 accepted")
	}
	if _, err := NewStreaming(10, StreamingOptions{K: 3, Window: 2}); err == nil {
		t.Fatal("window < K accepted")
	}
	if _, err := NewStreaming(2, StreamingOptions{K: 3, Window: 5}); err == nil {
		t.Fatal("m < K accepted")
	}
	st, err := NewStreaming(10, StreamingOptions{K: 2, Window: 6, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Push(mat.NewDense(9, 1)); err == nil {
		t.Fatal("wrong row count accepted")
	}
	if err := st.Push(mat.NewDense(10, 0)); err != nil {
		t.Fatal("empty push rejected")
	}
}

func TestStreamingFitsStationaryStream(t *testing.T) {
	s := rng.New(5)
	basis := mat.NewDense(30, 3)
	basis.RandomUniform(s)
	st, err := NewStreaming(30, StreamingOptions{K: 3, Window: 24, RefineSweeps: 2, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	for batch := 0; batch < 10; batch++ {
		if err := st.Push(streamColumns(basis, 4, 0.01, s)); err != nil {
			t.Fatal(err)
		}
	}
	if st.Len() != 24 {
		t.Fatalf("window length %d, want 24", st.Len())
	}
	if e := st.RelErr(); e > 0.08 {
		t.Fatalf("stationary stream fit %g", e)
	}
	w, h := st.Factors()
	if w.Min() < 0 || h.Min() < 0 {
		t.Fatal("streaming factors not non-negative")
	}
	if h.Cols != st.Len() || w.Rows != 30 || w.Cols != 3 {
		t.Fatal("factor shapes wrong")
	}
}

func TestStreamingAdaptsToRegimeChange(t *testing.T) {
	s := rng.New(9)
	basisA := mat.NewDense(24, 2)
	basisA.RandomUniform(s)
	basisB := mat.NewDense(24, 2)
	basisB.RandomUniform(s)
	st, err := NewStreaming(24, StreamingOptions{K: 2, Window: 16, RefineSweeps: 2, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		if err := st.Push(streamColumns(basisA, 4, 0.005, s)); err != nil {
			t.Fatal(err)
		}
	}
	settled := st.RelErr()
	// Regime change: new basis. The first post-change windows mix both
	// regimes; after the old data evicts, the fit must recover.
	var after float64
	for i := 0; i < 8; i++ {
		if err := st.Push(streamColumns(basisB, 4, 0.005, s)); err != nil {
			t.Fatal(err)
		}
		after = st.RelErr()
	}
	if after > settled*3+0.05 {
		t.Fatalf("did not adapt to regime change: settled %g, after %g", settled, after)
	}
}

func TestStreamingFrozenBasisOnlyProjects(t *testing.T) {
	s := rng.New(13)
	basis := mat.NewDense(20, 2)
	basis.RandomUniform(s)
	st, err := NewStreaming(20, StreamingOptions{K: 2, Window: 10, RefineSweeps: 0, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	w0, _ := st.Factors()
	if err := st.Push(streamColumns(basis, 6, 0, s)); err != nil {
		t.Fatal(err)
	}
	w1, _ := st.Factors()
	if d := w0.MaxDiff(w1); d != 0 {
		t.Fatalf("frozen basis moved by %g", d)
	}
}

func TestStreamingMatchesBatchOnWindow(t *testing.T) {
	// With enough refinement sweeps, the streaming fit of the final
	// window should approach a batch NMF of the same data.
	s := rng.New(17)
	basis := mat.NewDense(28, 3)
	basis.RandomUniform(s)
	window := streamColumns(basis, 20, 0.01, s)
	st, err := NewStreaming(28, StreamingOptions{K: 3, Window: 20, RefineSweeps: 6, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Push(window); err != nil {
		t.Fatal(err)
	}
	batch, err := RunSequential(WrapDense(window), Options{K: 3, MaxIter: 12, Seed: 5, ComputeError: true})
	if err != nil {
		t.Fatal(err)
	}
	batchErr := batch.RelErr[len(batch.RelErr)-1]
	if st.RelErr() > batchErr*1.5+0.02 {
		t.Fatalf("streaming fit %g vs batch %g", st.RelErr(), batchErr)
	}
}

func TestStreamingResidualDetectsOutlier(t *testing.T) {
	s := rng.New(21)
	basis := mat.NewDense(40, 2)
	basis.RandomUniform(s)
	st, err := NewStreaming(40, StreamingOptions{K: 2, Window: 12, RefineSweeps: 1, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := st.Push(streamColumns(basis, 4, 0.005, s)); err != nil {
			t.Fatal(err)
		}
	}
	baseline := st.ForegroundEnergy(st.Len() - 1)
	// Inject an "object": a column with a bright patch the basis
	// cannot explain.
	anomaly := streamColumns(basis, 1, 0.005, s)
	for i := 10; i < 18; i++ {
		anomaly.Set(i, 0, anomaly.At(i, 0)+3)
	}
	if err := st.Push(anomaly); err != nil {
		t.Fatal(err)
	}
	if got := st.ForegroundEnergy(st.Len() - 1); got < 5*baseline+1 {
		t.Fatalf("outlier energy %g not above baseline %g", got, baseline)
	}
}

func TestStreamingResidualPanicsOutOfRange(t *testing.T) {
	st, err := NewStreaming(10, StreamingOptions{K: 2, Window: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range residual did not panic")
		}
	}()
	st.Residual(0)
}

// TestStreamingRingOrderAcrossWraparound: with a frozen basis and
// columns that are known multiples of one representable pattern, the
// retained coefficients must come back oldest-first even after the
// ring wraps several times.
func TestStreamingRingOrderAcrossWraparound(t *testing.T) {
	const m, k, window = 12, 2, 4
	st, err := NewStreaming(m, StreamingOptions{K: k, Window: window, RefineSweeps: 0, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	w, _ := st.Factors()
	// Column t = t · (W·x0): its exact projection is t·x0.
	x0 := mat.NewDense(k, 1)
	x0.Set(0, 0, 1)
	x0.Set(1, 0, 2)
	base := mul(w, x0)
	for tcol := 1; tcol <= 11; tcol++ {
		col := mat.NewDense(m, 1)
		for i := 0; i < m; i++ {
			col.Set(i, 0, float64(tcol)*base.At(i, 0))
		}
		if err := st.Push(col); err != nil {
			t.Fatal(err)
		}
	}
	if st.Len() != window {
		t.Fatalf("Len = %d, want %d", st.Len(), window)
	}
	_, h := st.Factors()
	// Retained columns are 8..11 (oldest first); h column j should be
	// (8+j)·x0.
	for j := 0; j < window; j++ {
		want := float64(8 + j)
		for i := 0; i < k; i++ {
			got := h.At(i, j)
			if diff := got - want*x0.At(i, 0); diff > 1e-8 || diff < -1e-8 {
				t.Fatalf("h[%d,%d] = %g, want %g: ring order broken after wraparound", i, j, got, want*x0.At(i, 0))
			}
		}
		// The stored data column must match too (Residual ≈ 0 and the
		// reconstruction scales with the column index).
		r := st.Residual(j)
		for i := range r {
			if r[i] > 1e-8 || r[i] < -1e-8 {
				t.Fatalf("residual[%d][%d] = %g, want 0", j, i, r[i])
			}
		}
	}
}

// TestStreamingOverWindowPushKeepsNewest: pushing more columns than the
// window retains only the newest window-many, in order.
func TestStreamingOverWindowPushKeepsNewest(t *testing.T) {
	const m, k, window = 10, 2, 3
	st, err := NewStreaming(m, StreamingOptions{K: k, Window: window, RefineSweeps: 0, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	w, _ := st.Factors()
	x0 := mat.NewDense(k, 1)
	x0.Set(0, 0, 1)
	x0.Set(1, 0, 1)
	base := mul(w, x0)
	big := mat.NewDense(m, 7)
	for j := 0; j < 7; j++ {
		for i := 0; i < m; i++ {
			big.Set(i, j, float64(j+1)*base.At(i, 0))
		}
	}
	if err := st.Push(big); err != nil {
		t.Fatal(err)
	}
	if st.Len() != window {
		t.Fatalf("Len = %d, want %d", st.Len(), window)
	}
	_, h := st.Factors()
	for j := 0; j < window; j++ {
		want := float64(5 + j) // columns 5,6,7 survive
		if got := h.At(0, j); got-want > 1e-8 || want-got > 1e-8 {
			t.Fatalf("h[0,%d] = %g, want %g", j, got, want)
		}
	}
}

// TestStreamingPushZeroAllocs is the satellite acceptance criterion:
// once the ring is warm, a steady-state Push — projection, ring
// scatter, and a refinement sweep with a workspace-aware solver —
// performs zero heap allocations.
func TestStreamingPushZeroAllocs(t *testing.T) {
	s := rng.New(31)
	basis := mat.NewDense(32, 3)
	basis.RandomUniform(s)
	st, err := NewStreaming(32, StreamingOptions{
		K: 3, Window: 16, RefineSweeps: 1,
		Solver: SolverHALS, SolverSweeps: 2, Seed: 9,
	})
	if err != nil {
		t.Fatal(err)
	}
	batch := streamColumns(basis, 4, 0.01, s)
	push := func() {
		if err := st.Push(batch); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 6; i++ { // fill the window and warm the arena
		push()
	}
	if allocs := testing.AllocsPerRun(10, push); allocs != 0 {
		t.Errorf("steady-state Push allocates %v times, want 0", allocs)
	}
}
