package core

import (
	"fmt"
	"reflect"
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
// wall-clock ratios: with overlap on, every half-step's first panel
// chunk is an all-gather posted before the local Gram product begins
// and joined after it ends (so only the residual wait is on the
// critical path), later chunks and the blocking driver never straddle
// a Gram, and the two drivers send the same messages and words per
// category and compute bitwise the same factors.
func TestOverlapShrinksAllGatherCriticalPath(t *testing.T) {
	const m, n, k, iters, chunks = 64, 48, 4, 3, 2
	a := WrapDense(lowRankDense(m, n, k, 0.02, 5))
	g := grid.New(2, 2)
	opts := Options{K: k, MaxIter: iters, Seed: 9, Solver: SolverMU, CommChunk: k / chunks, TraceEvents: true}
	ovl, err := RunHPC(a, g, opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.NoCommOverlap = true
	blk, err := RunHPC(a, g, opts)
	if err != nil {
		t.Fatal(err)
	}

	// straddlers lists, per rank, the positions (in post order) of the
	// all-gathers whose post→join span encloses a Gram phase span. A
	// rank's events share one monotonic clock and one goroutine, so the
	// ordering is causal, not statistical.
	straddlers := func(res *Result) [][]int {
		out := make([][]int, g.Size())
		for r := range out {
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
			if len(gathers) != 2*chunks*iters || len(grams) != 2*iters {
				t.Fatalf("rank %d: %d all-gathers and %d Gram phases traced, want %d and %d",
					r, len(gathers), len(grams), 2*chunks*iters, 2*iters)
			}
			for i, ag := range gathers {
				for _, gm := range grams {
					if ag.Start <= gm.Start && ag.Start+ag.Dur >= gm.Start+gm.Dur {
						out[r] = append(out[r], i)
					}
				}
			}
		}
		return out
	}
	var firstChunks []int
	for i := 0; i < 2*chunks*iters; i += chunks {
		firstChunks = append(firstChunks, i)
	}
	for r, got := range straddlers(ovl) {
		if !reflect.DeepEqual(got, firstChunks) {
			t.Errorf("overlap on, rank %d: all-gathers %v straddle a Gram phase, want each half-step's first chunk %v", r, got, firstChunks)
		}
	}
	for r, got := range straddlers(blk) {
		if got != nil {
			t.Errorf("overlap off, rank %d: all-gathers %v straddle a Gram phase, want none", r, got)
		}
	}

	if !reflect.DeepEqual(ovl.Breakdown.Msgs, blk.Breakdown.Msgs) || !reflect.DeepEqual(ovl.Breakdown.Words, blk.Breakdown.Words) {
		t.Errorf("overlap changed the traffic: msgs %v vs %v, words %v vs %v",
			ovl.Breakdown.Msgs, blk.Breakdown.Msgs, ovl.Breakdown.Words, blk.Breakdown.Words)
	}
	for r := range ovl.PerRank {
		for task, o := range ovl.PerRank[r].Tasks {
			if b := blk.PerRank[r].Tasks[task]; o.Msgs != b.Msgs || o.Words != b.Words {
				t.Errorf("rank %d %s: %d msgs / %d words overlapped vs %d / %d blocking", r, task, o.Msgs, o.Words, b.Msgs, b.Words)
			}
		}
	}
	if d := ovl.W.MaxDiff(blk.W); d != 0 {
		t.Fatalf("overlap changed W by %g", d)
	}
}
