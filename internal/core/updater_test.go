package core

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"

	"hpcnmf/internal/grid"
	"hpcnmf/internal/mat"
	"hpcnmf/internal/nnls"
	"hpcnmf/internal/ooc"
)

// countingUpdater is a custom Updater plug-in for the seam tests: it
// delegates the math to BPP but carries its own name and counts
// calls, so the tests can tell the skeleton really ran it.
type countingUpdater struct {
	inner nnls.ContextSolver
	calls int
}

func (u *countingUpdater) Name() string { return "test-bpp" }

func (u *countingUpdater) Update(ctx *nnls.Context, gram, rhs, x *mat.Dense) (nnls.Stats, error) {
	u.calls++
	return nnls.SolveWith(u.inner, ctx, gram, rhs, x, x)
}

// TestCustomUpdaterPlugsIntoSkeleton: a custom Options.Update factory
// must drive every driver through the same skeleton the built-ins
// use — bitwise identically when the math matches — and its factory
// must be invoked once per rank.
func TestCustomUpdaterPlugsIntoSkeleton(t *testing.T) {
	const m, n, k = 48, 40, 4
	a := WrapDense(lowRankDense(m, n, k, 0.02, 3))
	base := Options{K: k, MaxIter: 4, Seed: 11, Solver: SolverBPP, ComputeError: true}

	// The factory runs once per rank, concurrently under RunHPC.
	var madeMu sync.Mutex
	var made []*countingUpdater
	custom := base
	custom.Update = func() Updater {
		u := &countingUpdater{inner: nnls.NewBPP()}
		madeMu.Lock()
		made = append(made, u)
		madeMu.Unlock()
		return u
	}

	seqRef, err := RunSequential(a, base)
	if err != nil {
		t.Fatal(err)
	}
	seqGot, err := RunSequential(a, custom)
	if err != nil {
		t.Fatal(err)
	}
	if d := seqGot.W.MaxDiff(seqRef.W); d != 0 {
		t.Errorf("sequential: custom updater changed W by %g (want bitwise equal)", d)
	}
	if len(made) != 1 || made[0].calls != 2*base.MaxIter {
		t.Errorf("sequential: %d updaters made, first called %d times; want 1 updater, %d calls",
			len(made), made[0].calls, 2*base.MaxIter)
	}

	// RunHPC must call the factory once per rank and still match the
	// built-in BPP run grid-exactly. (The factory itself runs on the
	// spawning goroutines, so guard the shared slice is not needed:
	// newUpdateEnv runs inside each rank — count via the instances.)
	made = nil
	g := grid.Grid{PR: 2, PC: 2}
	hpcRef, err := RunHPC(a, g, base)
	if err != nil {
		t.Fatal(err)
	}
	hpcGot, err := RunHPC(a, g, custom)
	if err != nil {
		t.Fatal(err)
	}
	if d := hpcGot.W.MaxDiff(hpcRef.W); d != 0 {
		t.Errorf("hpc 2x2: custom updater changed W by %g (want bitwise equal)", d)
	}
	if d := hpcGot.H.MaxDiff(hpcRef.H); d != 0 {
		t.Errorf("hpc 2x2: custom updater changed H by %g (want bitwise equal)", d)
	}
	if len(made) != 4 {
		t.Errorf("hpc 2x2: factory made %d updaters, want one per rank (4)", len(made))
	}
	for i, u := range made {
		if u.calls != 2*base.MaxIter {
			t.Errorf("hpc rank instance %d: %d update calls, want %d", i, u.calls, 2*base.MaxIter)
		}
	}

	// The plug-in's identity must surface in the run report.
	rep := NewReport(DescribeMatrix("t", a), 4, custom, hpcGot, "")
	if rep.Updater != "test-bpp" {
		t.Errorf("report updater %q, want %q", rep.Updater, "test-bpp")
	}
	if rep.Options.Solver != "BPP" {
		t.Errorf("report options.solver %q, want the SolverKind %q", rep.Options.Solver, "BPP")
	}
}

// TestCustomUpdaterCheckpointIdentity: checkpoints record the
// updater's name and resume validates it, so a run cannot silently
// continue under a different update rule.
func TestCustomUpdaterCheckpointIdentity(t *testing.T) {
	const m, n, k = 30, 24, 3
	a := WrapDense(lowRankDense(m, n, k, 0.02, 5))
	dir := t.TempDir()
	opts := Options{K: k, MaxIter: 4, Seed: 7, CheckpointDir: dir, CheckpointEvery: 2,
		Update: func() Updater { return &countingUpdater{inner: nnls.NewBPP()} }}
	if _, err := RunSequential(a, opts); err != nil {
		t.Fatal(err)
	}
	ck, err := LoadCheckpoint(dir)
	if err != nil {
		t.Fatal(err)
	}
	if ck.Meta.Solver != "test-bpp" {
		t.Fatalf("checkpoint recorded solver %q, want the updater name %q", ck.Meta.Solver, "test-bpp")
	}
	// Resuming with the same plug-in succeeds; resuming with a
	// built-in solver (name "BPP") must be refused.
	resumed := opts
	resumed.MaxIter = 6
	if _, err := ck.Resume(resumed); err != nil {
		t.Errorf("resume with matching updater failed: %v", err)
	}
	mismatched := Options{K: k, MaxIter: 6, Seed: 7, Solver: SolverBPP}
	if _, err := ck.Resume(mismatched); err == nil {
		t.Error("resume accepted a different updater than the checkpoint's")
	} else if !strings.Contains(err.Error(), "test-bpp") {
		t.Errorf("resume error %q does not name the checkpoint updater", err)
	}
}

// TestSolverUpdaterNames: the built-in solvers keep their identity
// through the Updater adapter.
func TestSolverUpdaterNames(t *testing.T) {
	for _, kind := range allSolvers() {
		o := Options{Solver: kind, Sweeps: 1}
		if got := o.newUpdater().Name(); got != kind.String() {
			t.Errorf("updater for %v named %q", kind, got)
		}
		if got := o.updaterName(); got != kind.String() {
			t.Errorf("updaterName for %v = %q", kind, got)
		}
	}
}

var errSyntheticUpdate = errors.New("synthetic update failure")

// failingUpdater errors on its nth call, to drive the update-failure
// paths of the drivers.
type failingUpdater struct {
	after int
	calls int
}

func (u *failingUpdater) Name() string { return "failing" }

func (u *failingUpdater) Update(ctx *nnls.Context, gram, rhs, x *mat.Dense) (nnls.Stats, error) {
	u.calls++
	if u.calls > u.after {
		return nnls.Stats{}, errSyntheticUpdate
	}
	return nnls.SolveWith(nnls.NewBPP(), ctx, gram, rhs, x, x)
}

// TestUpdaterErrorSurfaces: an updater error must abort the run with
// an iteration-stamped error that keeps the updater's own error in its
// chain, under every layout — returned directly by a layout without a
// communicator, carried through the aborting world otherwise.
func TestUpdaterErrorSurfaces(t *testing.T) {
	for _, ep := range entryPoints(t, lowRankDense(30, 24, 3, 0.02, 5)) {
		t.Run(ep.name, func(t *testing.T) {
			opts := Options{K: 3, MaxIter: 5, Seed: 7,
				Update: func() Updater { return &failingUpdater{after: 3} }}
			_, err := ep.run(opts)
			if err == nil {
				t.Fatal("run succeeded despite failing updater")
			}
			if !errors.Is(err, errSyntheticUpdate) {
				t.Errorf("error %q does not wrap the updater failure", err)
			}
			if !strings.Contains(err.Error(), "update failed at iteration") {
				t.Errorf("error %q is not iteration-stamped", err)
			}
		})
	}
}

// widthRecorder is BPP that notes how many columns each Update call
// was handed.
type widthRecorder struct {
	inner  nnls.ContextSolver
	widths *[]int
}

func (u widthRecorder) Name() string { return "widths" }

func (u widthRecorder) Update(ctx *nnls.Context, gram, rhs, x *mat.Dense) (nnls.Stats, error) {
	*u.widths = append(*u.widths, x.Cols)
	return nnls.SolveWith(u.inner, ctx, gram, rhs, x, x)
}

// TestUpdaterSeesColumnSubsets pins the Updater contract from the
// skeleton's side: the in-core run hands Update all of Wᵀ in one call,
// the streamed run hands it the columns under one tile at a time — the
// widths are the tile heights — and the factors and the error history
// are bitwise the same, because a column's update does not depend on
// the subset it arrives in.
func TestUpdaterSeesColumnSubsets(t *testing.T) {
	d := lowRankDense(30, 24, 3, 0.02, 5)
	var widths []int
	opts := Options{K: 3, MaxIter: 3, Seed: 7, ComputeError: true,
		Update: func() Updater { return widthRecorder{nnls.NewBPP(), &widths} }}

	want, err := RunSequential(WrapDense(d), opts)
	if err != nil {
		t.Fatal(err)
	}
	if got, w := fmt.Sprint(widths), fmt.Sprint([]int{30, 24, 30, 24, 30, 24}); got != w {
		t.Errorf("in-core Update widths %s, want %s", got, w)
	}

	widths = nil
	got, err := RunOutOfCore(openTileFile(t, writeTileFile(t, d, 7), ooc.BackendAuto), 2, opts)
	if err != nil {
		t.Fatal(err)
	}
	perIter := []int{7, 7, 7, 7, 2, 24} // five tiles of W's rows, then H
	if g, w := fmt.Sprint(widths), fmt.Sprint(slices.Concat(perIter, perIter, perIter)); g != w {
		t.Errorf("out-of-core Update widths %s, want %s", g, w)
	}
	if !got.W.Equal(want.W, 0) || !got.H.Equal(want.H, 0) || !slices.Equal(got.RelErr, want.RelErr) {
		t.Error("panel-wise updates changed the factors or the error history")
	}
}
