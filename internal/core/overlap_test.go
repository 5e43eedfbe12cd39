package core

import (
	"fmt"
	"testing"

	"hpcnmf/internal/grid"
	"hpcnmf/internal/metrics"
	"hpcnmf/internal/mpi"
	"hpcnmf/internal/perf"
	"hpcnmf/internal/trace"
)

// TestOverlapCountersOn2x2 checks the per-rank overlap accounting on
// a 2×2 world: every iteration posts one nonblocking all-gather per
// factor exchange per rank, the overlap window is nonzero (the Gram
// product runs inside it), and the efficiency gauge is a valid ratio.
func TestOverlapCountersOn2x2(t *testing.T) {
	const m, n, k, iters = 64, 48, 4, 6
	a := WrapDense(lowRankDense(m, n, k, 0.02, 5))
	reg := metrics.NewRegistry()
	g := grid.New(2, 2)
	res, err := RunHPC(a, g, Options{K: k, MaxIter: iters, Seed: 9, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	if wantReq := int64(2 * iters * 4); reg.Counter("mpi.overlap.requests").Value() != wantReq {
		t.Errorf("overlap.requests = %d, want %d (2 per rank per iteration)",
			reg.Counter("mpi.overlap.requests").Value(), wantReq)
	}
	for r := 0; r < 4; r++ {
		window := reg.Counter(fmt.Sprintf("mpi.rank.%d.overlap.window.ns", r)).Value()
		if window <= 0 {
			t.Errorf("rank %d: overlap window %dns, want > 0", r, window)
		}
		eff := reg.Gauge(fmt.Sprintf("mpi.rank.%d.overlap.efficiency", r)).Value()
		if eff < 0 || eff > 1 {
			t.Errorf("rank %d: overlap efficiency %v outside [0, 1]", r, eff)
		}
	}
	if res.Iterations != iters {
		t.Fatalf("ran %d iterations, want %d", res.Iterations, iters)
	}
}

// TestOverlapShrinksAllGatherCriticalPath is the acceptance check for
// the overlap optimization, stated on what is exact rather than on
// wall-clock ratios: every half-step's factor all-gather is posted
// before the local Gram product begins and joined after it ends, so
// only the residual wait is on the critical path. A rank's events share
// one monotonic clock and one goroutine, so the ordering is causal,
// not statistical.
func TestOverlapShrinksAllGatherCriticalPath(t *testing.T) {
	const m, n, k, iters = 64, 48, 4, 3
	a := WrapDense(lowRankDense(m, n, k, 0.02, 5))
	g := grid.New(2, 2)
	res, err := RunHPC(a, g, Options{K: k, MaxIter: iters, Seed: 9, Solver: SolverMU, TraceEvents: true})
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < g.Size(); r++ {
		var gathers, grams []trace.Event
		for _, ev := range res.Trace.Events {
			switch {
			case ev.Rank != r:
			case ev.Cat == trace.CatMPI && ev.Name == mpi.CatAllGather.String():
				gathers = append(gathers, ev)
			case ev.Cat == trace.CatPhase && ev.Name == perf.TaskGram.String():
				grams = append(grams, ev)
			}
		}
		if len(gathers) != 2*iters || len(grams) != 2*iters {
			t.Fatalf("rank %d: %d all-gathers and %d Gram phases traced, want %d of each",
				r, len(gathers), len(grams), 2*iters)
		}
		for i, ag := range gathers {
			if gm := grams[i]; ag.Start > gm.Start || ag.Start+ag.Dur < gm.Start+gm.Dur {
				t.Errorf("rank %d half-step %d: all-gather [%v, +%v] does not enclose its Gram phase [%v, +%v]",
					r, i, ag.Start, ag.Dur, gm.Start, gm.Dur)
			}
		}
	}
}
