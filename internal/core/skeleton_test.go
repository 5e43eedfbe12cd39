package core

import (
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hpcnmf/internal/grid"
	"hpcnmf/internal/mat"
	"hpcnmf/internal/metrics"
	"hpcnmf/internal/nnls"
	"hpcnmf/internal/perf"
	"hpcnmf/internal/trace"
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
	f := openTileFile(t, writeTileFile(t, d, 7))
	return []entryPoint{
		{"sequential", false, func(o Options) (*Result, error) { return RunSequential(a, o) }},
		{"ooc", false, func(o Options) (*Result, error) { return RunOutOfCore(f, 2, o) }},
		{"naive", true, func(o Options) (*Result, error) { return RunNaive(a, 3, o) }},
		{"naive-p4", true, func(o Options) (*Result, error) { return RunNaive(a, 4, o) }},
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

// parentCounts is each entry point's per-iteration flops/msgs/words per
// task (Result.Breakdown, max over ranks) over 7 iterations of
// TestRunLoopContract's problem, as read at the commit before the
// ledger replaced perf.Tracker: how a phase is clocked must not move
// what is counted. parentSpans is the spans a rank records inside one
// steady-state iteration span there (a single-rank layout's first
// iteration has one more, the H Gram no earlier objective left behind).
var parentCounts = map[string]string{
	"sequential": "NLS:1431/0/0 MM:17280/0/0 Gram:973/0/0 ",
	"ooc":        "NLS:1483/0/0 MM:17280/0/0 Gram:973/0/0 ",
	"naive":      "NLS:518/0/0 MM:5904/0/0 Gram:1056/0/0 AllG:0/4/156 AllR:0/2/4 ",
	"naive-p4":   "NLS:388/0/0 MM:4320/0/0 Gram:1020/0/0 AllG:0/4/171 AllR:0/2/4 ",
	"hpc":        "NLS:388/0/0 MM:4320/0/0 Gram:336/0/0 AllG:0/2/57 RedSc:0/2/57 AllR:0/10/32 ",
	"hpc-1x1":    "NLS:1431/0/0 MM:17280/0/0 Gram:1344/0/0 ",
	"hpc-auto":   "NLS:388/0/0 MM:4320/0/0 Gram:336/0/0 AllG:0/2/57 RedSc:0/2/57 AllR:0/10/32 ",
}
var parentSpans = map[string]int{
	"sequential": 9, "ooc": 30, "naive": 15, "naive-p4": 15, "hpc": 23, "hpc-1x1": 23, "hpc-auto": 23,
}

// countsOf renders a Breakdown's counted (not clocked) columns.
func countsOf(b *perf.Breakdown) string {
	s := ""
	for _, task := range perf.Tasks() {
		if f, m, w := b.Flops[task], b.Msgs[task], b.Words[task]; f|m|w != 0 {
			s += fmt.Sprintf("%s:%d/%d/%d ", task, f, m, w)
		}
	}
	return s
}

// spansPerIteration counts, for every rank and iteration, the spans
// recorded inside the iteration span (itself included).
func spansPerIteration(tr *trace.Trace, iters int) [][]int {
	counts := make([][]int, tr.Ranks)
	for r := range counts {
		counts[r] = make([]int, iters)
	}
	for _, it := range tr.Events {
		if it.Name != "iteration" {
			continue
		}
		for _, e := range tr.Events {
			if e.Rank == it.Rank && e.Start >= it.Start && e.Start+e.Dur <= it.Start+it.Dur {
				counts[it.Rank][it.Arg]++
			}
		}
	}
	return counts
}

// TestRunLoopContract pins what the one run loop promises under every
// layout: both stop tests fire at the iteration the sequential run
// stops at, one Progress record per iteration numbered 1..N,
// checkpoints exactly at the multiples of CheckpointEvery and never on
// the converged iteration, and no collective traffic in the Breakdown
// of a layout without a communicator. And what the one ledger per rank
// promises: its books balance in integer nanoseconds with every phase
// the layout runs on them, the counts are the parent commit's, the
// live counters a Progress callback reads are the ledger's totals
// through that iteration, and an iteration records the spans it
// recorded before the ledger, every iteration.
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
				opts.TraceEvents = true
				opts.Metrics = metrics.NewRegistry()
				var seen []int
				rank0 := map[string]int64{} // rank 0's ns per task so far, from its Progress records
				live := map[string]int64{}  // the nmf.task.*.ns counters at the previous record
				opts.Progress = func(p Progress) {
					seen = append(seen, p.Iter)
					counters := opts.Metrics.Snapshot().Counters
					for _, task := range perf.Tasks() {
						name := task.String()
						rank0[name] += int64(math.Round(p.PhaseSeconds[name] * 1e9))
						got := counters["nmf.task."+name+".ns"]
						// One rank: the registry holds that rank's ledger.
						// Several flush independently into a sum that only grows.
						if !ep.comm && got != rank0[name] {
							t.Errorf("iteration %d: nmf.task.%s.ns = %d, the ledger holds %d", p.Iter, name, got, rank0[name])
						}
						if got < rank0[name] || got < live[name] {
							t.Errorf("iteration %d: nmf.task.%s.ns = %d, below rank 0's %d or the previous %d", p.Iter, name, got, rank0[name], live[name])
						}
						live[name] = got
					}
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

				// (i) Each rank's books: Σ task + unattributed = step wall to
				// the nanosecond, nothing charged twice or outside a step,
				// and every phase the layout runs has time on them.
				charged := []perf.Task{perf.TaskMM, perf.TaskNLS, perf.TaskGram, perf.TaskOther}
				if ep.comm {
					charged = append(charged, perf.TaskAllGather, perf.TaskAllReduce)
				}
				var stepNs, flopSum int64
				for r, led := range res.ledgers {
					sum := led.Unattributed()
					for _, task := range perf.Tasks() {
						sum += led.Wall[task]
					}
					if sum != led.Step || led.Unattributed() < 0 || led.Step <= 0 {
						t.Errorf("rank %d: tasks + unattributed = %v over a step wall of %v (unattributed %v)", r, sum, led.Step, led.Unattributed())
					}
					for _, task := range charged {
						if led.Wall[task] <= 0 {
							t.Errorf("rank %d ran %s phases and charged them %v", r, task, led.Wall[task])
						}
					}
					if !ep.comm && led.Wall[perf.TaskAllGather]+led.Wall[perf.TaskReduceScatter]+led.Wall[perf.TaskAllReduce] != 0 {
						t.Errorf("rank %d has no communicator and collective time", r)
					}
					stepNs += int64(led.Step)
					flopSum += led.Flops[perf.TaskMM]
				}
				final := opts.Metrics.Snapshot().Counters
				if final["nmf.step.ns"] != stepNs || final["nmf.task.MM.flops"] != flopSum {
					t.Errorf("live counters end at %d step ns, %d MM flops; the ledgers hold %d, %d",
						final["nmf.step.ns"], final["nmf.task.MM.flops"], stepNs, flopSum)
				}

				// Tile wait is the pipeline's own clock, charged once: the
				// task counter is the nmf.ooc.wait_ns RunOutOfCore publishes.
				if wait := final["nmf.task.TileWait.ns"]; wait != final["nmf.ooc.wait_ns"] || (wait == 0) != (ep.name != "ooc") {
					t.Errorf("nmf.task.TileWait.ns = %d next to nmf.ooc.wait_ns = %d", wait, final["nmf.ooc.wait_ns"])
				}

				// (ii) The counts did not move, and the panels' MM flops
				// still sum to both products of the whole matrix.
				if st.name == "MaxIter" {
					if got := countsOf(res.Breakdown); got != parentCounts[ep.name] {
						t.Errorf("per-iteration flops/msgs/words\n got %s\nwant %s", got, parentCounts[ep.name])
					}
				}
				if !ep.comm && flopSum != 4*int64(d.Rows*d.Cols)*int64(opts.K)*int64(n) {
					t.Errorf("MM flops over %d iterations = %d, want 4·nnz·k each", n, flopSum)
				}

				// (iv) Spans per step: the parent's count, every iteration.
				for r, counts := range spansPerIteration(res.Trace, n) {
					for i, c := range counts {
						want := parentSpans[ep.name]
						if i == 0 && !ep.comm {
							want++
						}
						if c != want {
							t.Errorf("rank %d records %d spans in iteration %d, want %d", r, c, i+1, want)
						}
					}
				}
			})
		}
	}
}

// TestObjectiveNeverIncreases is the descent property every built-in
// updater promises, asserted through every layout rather than only
// against our own reference loops: BPP solves each subproblem
// exactly, MU, HALS and PGD take descent steps on it, so
// the relative error never rises from one iteration to the next — on
// an easy problem and on two that stop far above zero error — and the
// factors stay nonnegative and finite. For the exact updater each
// half-step's output also meets the NNLS optimality (KKT) conditions:
// x ≥ 0, Gx − f ≥ 0 and x ⊙ (Gx − f) = 0, the last two to a relative
// 1e-8. The same holds, for BPP, MU and HALS, on degenerate input: an
// all-zero A (whose relative error is 0 throughout), an A with a zero
// row and a zero column, and a rank k = min(m, n).
func TestObjectiveNeverIncreases(t *testing.T) {
	type problem struct {
		name    string
		d       *mat.Dense
		k       int
		solvers []SolverKind
		sweeps  []int
	}
	var problems []problem
	for i, sh := range []struct {
		m, n, k int
		noise   float64
	}{{40, 36, 3, 0.01}, {40, 36, 5, 0.3}, {64, 48, 8, 0.5}} {
		problems = append(problems, problem{fmt.Sprintf("%dx%d k=%d", sh.m, sh.n, sh.k), lowRankDense(sh.m, sh.n, sh.k, sh.noise, uint64(41+i)), sh.k,
			allSolvers(), []int{1, 3}})
	}
	holed := lowRankDense(12, 10, 3, 0.01, 44)
	for j := 0; j < holed.Cols; j++ {
		holed.Set(4, j, 0)
	}
	for i := 0; i < holed.Rows; i++ {
		holed.Set(i, 7, 0)
	}
	degenerate := []SolverKind{SolverBPP, SolverMU, SolverHALS}
	problems = append(problems,
		problem{"all-zero 12x10 k=3", mat.NewDense(12, 10), 3, degenerate, []int{1}},
		problem{"zero row and column 12x10 k=3", holed, 3, degenerate, []int{1}},
		problem{"12x8 k=min(m,n)=8", lowRankDense(12, 8, 8, 0.01, 45), 8, degenerate, []int{1}})
	const iters = 60
	for _, pr := range problems {
		zero := slices.Max(pr.d.Data) == 0
		for _, ep := range entryPoints(t, pr.d) {
			for _, solver := range pr.solvers {
				for _, sweeps := range pr.sweeps {
					name := fmt.Sprintf("%s/%s/%v sweeps=%d", pr.name, ep.name, solver, sweeps)
					res, err := ep.run(Options{K: pr.k, MaxIter: iters, Seed: 13, Solver: solver, Sweeps: sweeps, ComputeError: true})
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					if len(res.RelErr) != iters {
						t.Fatalf("%s: %d error samples, want %d", name, len(res.RelErr), iters)
					}
					for it, e := range res.RelErr {
						if math.IsNaN(e) || math.IsInf(e, 0) || (zero && e != 0) {
							t.Errorf("%s: relative error %g at iteration %d", name, e, it+1)
							break
						}
						if it > 0 && e > res.RelErr[it-1]*(1+1e-12) {
							t.Errorf("%s: relative error rose at iteration %d: %.17g → %.17g", name, it+1, res.RelErr[it-1], e)
							break
						}
					}
					for _, f := range []*mat.Dense{res.W, res.H} {
						if !f.IsFinite() || f.Min() < 0 {
							t.Errorf("%s: a factor is negative or non-finite (min %g)", name, f.Min())
						}
					}
					if solver != SolverBPP || sweeps != 1 {
						continue
					}
					// The exact updater solves each half-step's NNLS: H
					// against the final W, and W against the H of the
					// iteration before (the same run one iteration
					// shorter).
					wta := mat.NewDense(pr.k, pr.d.Cols)
					mat.ParMulAtBTo(wta, res.W, pr.d, nil)
					if v := kktViolation(gram(res.W), wta, res.H); !(v <= 1e-8) {
						t.Errorf("%s: the last H half-step misses the NNLS optimality conditions by %g", name, v)
					}
					prev, err := ep.run(Options{K: pr.k, MaxIter: iters - 1, Seed: 13, Solver: solver, Sweeps: sweeps, ComputeError: true})
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					hat := mat.NewDense(pr.k, pr.d.Rows)
					mat.ParMulABtTo(hat, prev.H, pr.d, nil)
					if v := kktViolation(gram(prev.H.T()), hat, res.W.T()); !(v <= 1e-8) {
						t.Errorf("%s: the last W half-step misses the NNLS optimality conditions by %g", name, v)
					}
				}
			}
		}
	}
}

// kktViolation measures how far x is from solving min ½xᵀGx − fᵀx over
// x ≥ 0, column by column: the largest of a negative or NaN entry
// (+Inf), a gradient Gx − f below zero and a product x ⊙ (Gx − f) away
// from zero, the gradient in units of the size of Gx and f and the
// product in those units times the largest x. Where that size is zero
// (x or G zero, and f zero: all-zero input) the conditions hold
// exactly and the violation is 0.
func kktViolation(g, f, x *mat.Dense) float64 {
	grad := mul(g, x)
	xmax := max(slices.Max(x.Data), -x.Min())
	scale := max(slices.Max(g.Data), -g.Min())*xmax + max(slices.Max(f.Data), -f.Min())
	v := 0.0
	for i, xi := range x.Data {
		if !(xi >= 0) {
			return math.Inf(1)
		}
		if scale == 0 { // f = 0 and Gx = 0: the conditions hold exactly
			continue
		}
		gi := (grad.Data[i] - f.Data[i]) / scale
		v = max(v, -gi)
		if xi > 0 {
			v = max(v, math.Abs(xi*gi)/xmax)
		}
	}
	return v
}

// inCoreEntryPoints are the entry points that sum ‖A‖²_F themselves
// (trackedNorm), on a single rank and on two grids.
var inCoreEntryPoints = map[string]func(Matrix, Options) (*Result, error){
	"sequential": RunSequential,
	"naive":      func(a Matrix, o Options) (*Result, error) { return RunNaive(a, 3, o) },
	"hpc":        func(a Matrix, o Options) (*Result, error) { return RunHPC(a, grid.New(2, 2), o) },
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
	for name, run := range inCoreEntryPoints {
		want, err := run(WrapDense(d), opts)
		if err != nil {
			t.Fatal(err)
		}
		got, err := run(normTrap{WrapDense(d), t}, opts)
		if err != nil {
			t.Fatal(err)
		}
		if !got.W.Equal(want.W, 0) || !got.H.Equal(want.H, 0) || len(got.RelErr) != 0 {
			t.Errorf("%s: the run without a norm differs", name)
		}
	}

	f := openTileFile(t, writeTileFile(t, d, 7))
	for _, track := range []bool{false, true} {
		tm := newTiledMatrix(f, 2, track)
		s := newSeqRank(t, tm, 30, 24, tm.norm, Options{K: 3, ComputeError: track})
		if err := s.step(0); err != nil {
			t.Fatal(err)
		}
		tm.close()
		want := 0.0
		if track {
			want = d.SquaredFrobeniusNorm()
		}
		if got := s.normA2(); got != want {
			t.Errorf("ComputeError=%v: the first pass left normA2 = %v, want %v", track, got, want)
		}
	}
}

// slowNorm is a Matrix whose ‖A‖²_F is slow to arrive. With started
// set it first waits until a rank has begun its first W update — which
// a run that sums the norm before its ranks start never lets happen —
// and then every call takes 20 ms more. done records that a sum
// returned.
type slowNorm struct {
	Matrix
	t       *testing.T
	started <-chan struct{}
	done    *atomic.Bool
}

func (a slowNorm) SquaredFrobeniusNorm() float64 {
	if a.started != nil {
		select {
		case <-a.started:
		case <-time.After(5 * time.Second):
			a.t.Error("‖A‖²_F was summed before any rank could start its first W update")
		}
	}
	time.Sleep(20 * time.Millisecond)
	defer a.done.Store(true)
	return a.Matrix.SquaredFrobeniusNorm()
}

// startGate is BPP that closes started on the first call of any rank:
// the first call of a step is its W update.
type startGate struct {
	*nnls.BPP
	once    *sync.Once
	started chan struct{}
}

func (u startGate) SolveCtx(ctx *nnls.Context, gram, rhs, xInit, dst *mat.Dense) (nnls.Stats, error) {
	u.once.Do(func() { close(u.started) })
	return u.BPP.SolveCtx(ctx, gram, rhs, xInit, dst)
}

// TestNormSummedBesideFirstIteration: in core, ‖A‖²_F is summed on its
// own goroutine while the first iteration runs — the first W update
// starts before the sum does — and the objective waits for the whole
// sum, so the error history has the bits of a run whose norm arrives
// at once.
func TestNormSummedBesideFirstIteration(t *testing.T) {
	d := lowRankDense(30, 24, 3, 0.02, 5)
	gated := func() (Options, chan struct{}) {
		started, once := make(chan struct{}), new(sync.Once)
		return Options{K: 3, MaxIter: 3, Seed: 7, ComputeError: true,
			Update: func() Updater { return startGate{nnls.NewBPP(), once, started} }}, started
	}
	for name, run := range inCoreEntryPoints {
		opts, _ := gated()
		want, err := run(WrapDense(d), opts)
		if err != nil {
			t.Fatal(err)
		}
		opts, started := gated()
		got, err := run(slowNorm{WrapDense(d), t, started, new(atomic.Bool)}, opts)
		if err != nil {
			t.Fatal(err)
		}
		if len(got.RelErr) != 3 || !slices.Equal(got.RelErr, want.RelErr) || !got.W.Equal(want.W, 0) {
			t.Errorf("%s: error history %v with a slow norm, %v without", name, got.RelErr, want.RelErr)
		}
	}
}

// TestNormJoinedOnFailure: a run that fails before its first objective
// never reads its ‖A‖²_F future, yet returns only after the sum has,
// and leaves no goroutine behind.
func TestNormJoinedOnFailure(t *testing.T) {
	d := lowRankDense(30, 24, 3, 0.02, 5)
	opts := Options{K: 3, MaxIter: 3, Seed: 7, ComputeError: true,
		Update: func() Updater { return &failingUpdater{} }}
	for name, run := range inCoreEntryPoints {
		before := runtime.NumGoroutine()
		done := new(atomic.Bool)
		if _, err := run(slowNorm{WrapDense(d), t, nil, done}, opts); !errors.Is(err, errSyntheticUpdate) {
			t.Fatalf("%s: error %v, want the updater's", name, err)
		}
		if !done.Load() {
			t.Errorf("%s: the run returned before its ‖A‖²_F sum did", name)
		}
		after := runtime.NumGoroutine()
		for deadline := time.Now().Add(time.Second); after > before && time.Now().Before(deadline); after = runtime.NumGoroutine() {
			runtime.Gosched()
		}
		if after > before {
			t.Errorf("%s: %d goroutines after the failed run, %d before", name, after, before)
		}
	}
}
