package core

import (
	"os"
	"path/filepath"
	"testing"

	"hpcnmf/internal/grid"
	"hpcnmf/internal/mat"
	"hpcnmf/internal/ooc"
	"hpcnmf/internal/perf"
)

// entryPoint is one way into the shared run loop. comm reports
// whether the layout runs over a communicator.
type entryPoint struct {
	name string
	comm bool
	run  func(Options) (*Result, error)
}

// entryPoints lists every layout the skeleton runs under, on the same
// data: the contracts of runLayout and rankState.step are asserted
// once over all of them.
func entryPoints(t *testing.T, d *mat.Dense) []entryPoint {
	t.Helper()
	a := WrapDense(d)
	f := openTileFile(t, writeTileFile(t, d, 7), ooc.BackendAuto)
	return []entryPoint{
		{"sequential", false, func(o Options) (*Result, error) { return RunSequential(a, o) }},
		{"ooc", false, func(o Options) (*Result, error) { return RunOutOfCore(f, 2, o) }},
		{"naive", true, func(o Options) (*Result, error) { return RunNaive(a, 3, o) }},
		{"hpc", true, func(o Options) (*Result, error) { return RunHPC(a, grid.New(2, 2), o) }},
		{"hpc-1x1", true, func(o Options) (*Result, error) { return RunHPC(a, grid.New(1, 1), o) }},
		{"hpc-auto", true, func(o Options) (*Result, error) { return RunParallelAuto(a, 4, o) }},
	}
}

// checkpointIteration returns the iteration recorded by the checkpoint
// in dir, 0 when none has been written.
func checkpointIteration(t *testing.T, dir string) int {
	t.Helper()
	if _, err := os.Stat(filepath.Join(dir, CheckpointFile)); os.IsNotExist(err) {
		return 0
	}
	ck, err := LoadCheckpoint(dir)
	if err != nil {
		t.Fatal(err)
	}
	return ck.Meta.Iteration
}

// TestRunLoopContract pins what the one run loop promises under every
// layout: both stop tests fire at the iteration the sequential run
// stops at, one Progress record per iteration numbered 1..N,
// checkpoints exactly at the multiples of CheckpointEvery and never on
// the converged iteration, and no collective traffic in the Breakdown
// of a layout without a communicator.
func TestRunLoopContract(t *testing.T) {
	d := lowRankDense(40, 36, 3, 0.01, 29)
	base := Options{K: 3, MaxIter: 40, Seed: 7, ComputeError: true}
	stops := []struct {
		name  string
		every int
		set   func(*Options)
	}{
		{"Tol", 1, func(o *Options) { o.Tol = 1e-3 }},
		{"TolGrad", 1, func(o *Options) { o.TolGrad = 4e-3 }},
		{"MaxIter", 3, func(o *Options) { o.MaxIter = 7 }},
	}
	for _, st := range stops {
		wantIters := 0 // the sequential run's count; entryPoints lists it first
		for _, ep := range entryPoints(t, d) {
			t.Run(st.name+"/"+ep.name, func(t *testing.T) {
				opts := base
				st.set(&opts)
				opts.CheckpointDir = t.TempDir()
				opts.CheckpointEvery = st.every
				var seen []int
				opts.Progress = func(p Progress) {
					seen = append(seen, p.Iter)
					// Iteration p.Iter has not been checkpointed yet: on
					// disk is the last multiple of every before it.
					want := (p.Iter - 1) / st.every * st.every
					if got := checkpointIteration(t, opts.CheckpointDir); got != want {
						t.Errorf("at iteration %d the checkpoint on disk is of iteration %d, want %d", p.Iter, got, want)
					}
				}
				res, err := ep.run(opts)
				if err != nil {
					t.Fatal(err)
				}
				n := res.Iterations
				if wantIters == 0 {
					wantIters = n
				}
				converged := st.name != "MaxIter"
				if converged && (n < 3 || n >= opts.MaxIter) {
					t.Fatalf("%s stop after %d of %d iterations does not exercise the stop test", st.name, n, opts.MaxIter)
				}
				if n != wantIters {
					t.Errorf("stopped after %d iterations, sequential after %d", n, wantIters)
				}
				if len(res.RelErr) != n {
					t.Errorf("%d RelErr entries for %d iterations", len(res.RelErr), n)
				}
				if len(res.Progress) != n || len(seen) != n {
					t.Fatalf("%d Progress records (%d callbacks) for %d iterations", len(res.Progress), len(seen), n)
				}
				for i, p := range res.Progress {
					if p.Iter != i+1 || seen[i] != i+1 {
						t.Fatalf("Progress[%d].Iter = %d (callback saw %d), want %d", i, p.Iter, seen[i], i+1)
					}
				}
				wantCkpt := n / st.every * st.every
				if converged {
					wantCkpt = (n - 1) / st.every * st.every // the converged iteration is not checkpointed
				}
				if got := checkpointIteration(t, opts.CheckpointDir); got != wantCkpt {
					t.Errorf("final checkpoint is of iteration %d, want %d", got, wantCkpt)
				}
				for _, task := range []perf.Task{perf.TaskAllGather, perf.TaskReduceScatter, perf.TaskAllReduce} {
					traffic := res.Breakdown.Msgs[task] + res.Breakdown.Words[task]
					if !ep.comm && traffic != 0 {
						t.Errorf("layout without a communicator reports %s traffic", task)
					}
				}
			})
		}
	}
}

// normTrap is a Matrix whose norm nobody may ask for.
type normTrap struct {
	Matrix
	t *testing.T
}

func (a normTrap) SquaredFrobeniusNorm() float64 {
	a.t.Error("‖A‖²_F computed for a run that does not track the objective")
	return 0
}

// TestNormOnlyWhenTracked: ‖A‖²_F is a serial pass over every stored
// entry — a whole tile pass out of core — that only the objective
// reads, so no entry point makes it with ComputeError off, and nothing
// else about the run depends on it. Out of core the first pass's loader
// supplies it, or leaves it alone, by the same switch.
func TestNormOnlyWhenTracked(t *testing.T) {
	d := lowRankDense(30, 24, 3, 0.02, 5)
	opts := Options{K: 3, MaxIter: 3, Seed: 7}
	for name, run := range map[string]func(Matrix) (*Result, error){
		"sequential": func(a Matrix) (*Result, error) { return RunSequential(a, opts) },
		"naive":      func(a Matrix) (*Result, error) { return RunNaive(a, 3, opts) },
		"hpc":        func(a Matrix) (*Result, error) { return RunHPC(a, grid.New(2, 2), opts) },
	} {
		want, err := run(WrapDense(d))
		if err != nil {
			t.Fatal(err)
		}
		got, err := run(normTrap{WrapDense(d), t})
		if err != nil {
			t.Fatal(err)
		}
		if !got.W.Equal(want.W, 0) || !got.H.Equal(want.H, 0) || len(got.RelErr) != 0 {
			t.Errorf("%s: the run without a norm differs", name)
		}
	}

	f := openTileFile(t, writeTileFile(t, d, 7), ooc.BackendAuto)
	for _, track := range []bool{false, true} {
		tm := newTiledMatrix(f, 2, track)
		s := newSeqRank(t, tm, 30, 24, 0, Options{K: 3, ComputeError: track})
		tm.norm2 = &s.normA2
		if err := s.step(0); err != nil {
			t.Fatal(err)
		}
		tm.close()
		want := 0.0
		if track {
			want = d.SquaredFrobeniusNorm()
		}
		if s.normA2 != want {
			t.Errorf("ComputeError=%v: the first pass left normA2 = %v, want %v", track, s.normA2, want)
		}
	}
}
