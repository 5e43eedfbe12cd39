package core

import (
	"bytes"
	"testing"

	"hpcnmf/internal/grid"
	"hpcnmf/internal/metrics"
	"hpcnmf/internal/mpi"
	"hpcnmf/internal/perf"
	"hpcnmf/internal/trace"
)

// The acceptance shape for tracing: an HPC run on p ranks yields one
// track per rank with MPI, phase, and iteration spans, and the MPI
// spans nest inside the per-rank iteration spans.
func TestHPCTraceHasAllRankTracks(t *testing.T) {
	const p = 8
	a := lowRankDense(64, 48, 4, 0.02, 9)
	opts := testOpts(4)
	opts.MaxIter = 3
	opts.TraceEvents = true
	res, err := RunHPC(WrapDense(a), grid.Choose(64, 48, p), opts)
	if err != nil {
		t.Fatal(err)
	}
	tr := res.Trace
	if tr == nil {
		t.Fatal("TraceEvents set but Result.Trace is nil")
	}
	if tr.Ranks != p {
		t.Fatalf("trace has %d rank tracks, want %d", tr.Ranks, p)
	}
	if tr.Dropped != 0 {
		t.Fatalf("default capacity dropped %d events in a tiny run", tr.Dropped)
	}

	byRankCat := map[int]map[string]int{}
	iterSpans := map[int][]trace.Event{}
	for _, e := range tr.Events {
		if byRankCat[e.Rank] == nil {
			byRankCat[e.Rank] = map[string]int{}
		}
		byRankCat[e.Rank][e.Cat]++
		if e.Cat == trace.CatIter {
			iterSpans[e.Rank] = append(iterSpans[e.Rank], e)
		}
	}
	for rank := 0; rank < p; rank++ {
		cats := byRankCat[rank]
		for _, cat := range []string{trace.CatMPI, trace.CatPhase, trace.CatIter} {
			if cats[cat] == 0 {
				t.Fatalf("rank %d has no %q events (got %v)", rank, cat, cats)
			}
		}
		if got := len(iterSpans[rank]); got != opts.MaxIter {
			t.Fatalf("rank %d has %d iteration spans, want %d", rank, got, opts.MaxIter)
		}
	}
	// Every MPI span opened during the loop nests inside some
	// iteration span of its rank; only the final factor gather runs
	// after the last iteration closes.
	lastIterEnd := map[int]int64{}
	for rank, spans := range iterSpans {
		for _, it := range spans {
			if end := int64(it.Start + it.Dur); end > lastIterEnd[rank] {
				lastIterEnd[rank] = end
			}
		}
	}
	for _, e := range tr.Events {
		if e.Cat != trace.CatMPI || int64(e.Start) >= lastIterEnd[e.Rank] {
			continue
		}
		nested := false
		for _, it := range iterSpans[e.Rank] {
			if e.Start >= it.Start && e.Start+e.Dur <= it.Start+it.Dur {
				nested = true
				break
			}
		}
		if !nested {
			t.Fatalf("rank %d MPI span %q at %v not inside any iteration", e.Rank, e.Name, e.Start)
		}
	}

	// The merged trace exports to valid Chrome JSON.
	var buf bytes.Buffer
	if err := tr.WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := trace.ParseChrome(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if back.Ranks != p {
		t.Fatalf("exported trace has %d tracks, want %d", back.Ranks, p)
	}
}

// TestAllGatherFollowsGramOn2x2 pins the half-step's order on every
// rank of a traced 2×2 run: the factor all-gather's mpi span is a
// child of, and lies inside, its AllG phase span, and starts after the
// half-step's Gram phase ends. A rank's events share one goroutine and
// one monotonic clock, so the check is causal, not statistical.
func TestAllGatherFollowsGramOn2x2(t *testing.T) {
	const m, n, k, iters = 64, 48, 4, 3
	a := WrapDense(lowRankDense(m, n, k, 0.02, 5))
	g := grid.New(2, 2)
	res, err := RunHPC(a, g, Options{K: k, MaxIter: iters, Seed: 9, Solver: SolverMU, TraceEvents: true})
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < g.Size(); r++ {
		var gathers, phases, grams []trace.Event
		for _, ev := range res.Trace.Events {
			switch {
			case ev.Rank != r:
			case ev.Cat == trace.CatMPI && ev.Name == mpi.CatAllGather.String():
				gathers = append(gathers, ev)
			case ev.Cat == trace.CatPhase && ev.Name == perf.TaskAllGather.String():
				phases = append(phases, ev)
			case ev.Cat == trace.CatPhase && ev.Name == perf.TaskGram.String():
				grams = append(grams, ev)
			}
		}
		if len(gathers) != 2*iters || len(phases) != 2*iters || len(grams) != 2*iters {
			t.Fatalf("rank %d: %d all-gathers, %d AllG and %d Gram phases traced, want %d of each",
				r, len(gathers), len(phases), len(grams), 2*iters)
		}
		for i, ag := range gathers {
			ph, gm := phases[i], grams[i]
			if ag.Parent != ph.ID || ag.Start < ph.Start || ag.Start+ag.Dur > ph.Start+ph.Dur {
				t.Errorf("rank %d half-step %d: all-gather [%v, +%v] (parent %d) not inside its AllG phase [%v, +%v] (id %d)",
					r, i, ag.Start, ag.Dur, ag.Parent, ph.Start, ph.Dur, ph.ID)
			}
			if ag.Start < gm.Start+gm.Dur {
				t.Errorf("rank %d half-step %d: all-gather starts at %v, before its Gram phase [%v, +%v] ends",
					r, i, ag.Start, gm.Start, gm.Dur)
			}
		}
	}
}

func TestTracingOffLeavesResultBare(t *testing.T) {
	a := lowRankDense(30, 24, 3, 0.02, 9)
	res, err := RunNaive(WrapDense(a), 4, testOpts(3))
	if err != nil {
		t.Fatal(err)
	}
	if res.Trace != nil {
		t.Fatal("trace collected without TraceEvents")
	}
}

func TestSequentialTraceAndMetrics(t *testing.T) {
	a := lowRankDense(30, 24, 3, 0.02, 9)
	opts := testOpts(3)
	opts.TraceEvents = true
	opts.Metrics = metrics.NewRegistry()
	res, err := RunSequential(WrapDense(a), opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Trace == nil || res.Trace.Ranks != 1 {
		t.Fatal("sequential trace missing or wrong rank count")
	}
	if len(res.PerRank) != 1 {
		t.Fatalf("%d per-rank entries, want 1", len(res.PerRank))
	}
	snap := opts.Metrics.Snapshot()
	if snap.Counters["nmf.nls.inner_iterations"] == 0 {
		t.Fatalf("NLS inner-iteration counter missing: %v", snap.Counters)
	}
	// BPP's group shape: every grouped solve holds at least one column,
	// and every column of both factors takes at least one round per solve.
	groups, colRounds := snap.Counters["nmf.nls.groups"], snap.Counters["nmf.nls.column_rounds"]
	if groups == 0 || colRounds < groups || colRounds < int64(res.Iterations*(30+24)) {
		t.Fatalf("nmf.nls.groups = %d, nmf.nls.column_rounds = %d over %d iterations of 30+24 columns", groups, colRounds, res.Iterations)
	}
	if got := snap.Gauges["nmf.iterations"]; got != float64(res.Iterations) {
		t.Fatalf("iterations gauge = %v, want %d", got, res.Iterations)
	}
	last := res.RelErr[len(res.RelErr)-1]
	if got := snap.Gauges["nmf.rel_err"]; got != last {
		t.Fatalf("relerr gauge = %v, want %v", got, last)
	}
}

func TestParallelMetricsIncludeCollectives(t *testing.T) {
	a := lowRankDense(40, 32, 4, 0.02, 9)
	opts := testOpts(4)
	opts.Metrics = metrics.NewRegistry()
	res, err := RunNaive(WrapDense(a), 4, opts)
	if err != nil {
		t.Fatal(err)
	}
	snap := opts.Metrics.Snapshot()
	var latencies, traffic int
	for name := range snap.Histograms {
		if len(name) > len("mpi.collective.seconds.") && name[:len("mpi.collective.seconds.")] == "mpi.collective.seconds." {
			latencies++
		}
	}
	for name := range snap.Gauges {
		if len(name) > 4 && name[:4] == "mpi." {
			traffic++
		}
	}
	if latencies == 0 {
		t.Fatalf("no collective latency histograms: %v", snap.Histograms)
	}
	// msgs + words gauges for each of the 4 ranks.
	if traffic != 8 {
		t.Fatalf("%d mpi traffic gauges, want 8: %v", traffic, snap.Gauges)
	}
	_ = res
}

// TestOutOfCoreTraceNestsPhasesUnderTileStream: an out-of-core
// iteration is one pass, so its trace is one TileStream span per
// iteration span, and the per-tile work — two MM phases (A_t·Hᵀ,
// W_tᵀ·A_t), one NLS and one Gram per tile — is recorded as that
// span's children. The accounting follows the code too: the flops the
// pass charges to MM and Gram are the in-core run's, whatever the tile
// size (NLS flops are the solver's own count, and BPP shares fewer
// factorizations across a narrower panel).
func TestOutOfCoreTraceNestsPhasesUnderTileStream(t *testing.T) {
	d := lowRankDense(30, 24, 3, 0.02, 9)
	opts := testOpts(3)
	opts.MaxIter = 4
	opts.TraceEvents = true
	f := openTileFile(t, writeTileFile(t, d, 7))
	res, err := RunOutOfCore(f, 2, opts)
	if err != nil {
		t.Fatal(err)
	}
	iters := map[uint64]bool{}
	streams := map[uint64]map[string]int{} // TileStream span → its phase children by name
	for _, e := range res.Trace.Events {
		switch {
		case e.Cat == trace.CatIter:
			iters[e.ID] = true
		case e.Name == "TileStream":
			if e.Arg != int64(f.Tiles()) {
				t.Errorf("TileStream span carries tiles=%d, want %d", e.Arg, f.Tiles())
			}
			streams[e.ID] = map[string]int{}
		}
	}
	for _, e := range res.Trace.Events {
		if e.Name == "TileStream" && !iters[e.Parent] {
			t.Error("a TileStream span is not the child of an iteration span")
		}
		if kids, ok := streams[e.Parent]; ok {
			kids[e.Name]++
		}
	}
	if len(streams) != res.Iterations || len(iters) != res.Iterations {
		t.Fatalf("%d TileStream and %d iteration spans for %d iterations", len(streams), len(iters), res.Iterations)
	}
	tiles := f.Tiles()
	for _, kids := range streams {
		if kids["MM"] != 2*tiles || kids["NLS"] != tiles || kids["Gram"] != tiles || len(kids) != 3 {
			t.Fatalf("a TileStream span encloses %v, want MM:%d NLS:%d Gram:%d", kids, 2*tiles, tiles, tiles)
		}
	}

	opts.TraceEvents = false
	seq, err := RunSequential(WrapDense(d), opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, task := range []perf.Task{perf.TaskMM, perf.TaskGram} {
		if got, want := res.Breakdown.Flops[task], seq.Breakdown.Flops[task]; got != want || got == 0 {
			t.Errorf("%s flops per iteration: out-of-core %d, in-core %d", task, got, want)
		}
	}
	if mm := res.Breakdown.Flops[perf.TaskMM]; mm != 4*30*24*3 {
		t.Errorf("MM flops per iteration = %d, want 4·nnz·k = %d", mm, 4*30*24*3)
	}
}
