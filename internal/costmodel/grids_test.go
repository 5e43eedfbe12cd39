package costmodel_test

import (
	"errors"
	"math"
	"testing"

	"hpcnmf/internal/core"
	"hpcnmf/internal/costmodel"
	"hpcnmf/internal/datasets"
	"hpcnmf/internal/grid"
	"hpcnmf/internal/partition"
	"hpcnmf/internal/perf"
	"hpcnmf/internal/rng"
	"hpcnmf/internal/sparse"
)

// TestGoldenTable2Asymptotics pins the paper's Table 2 expressions
// (dense case) to hand-computed literals for a squarish and a
// tall-skinny problem, so any silent change to the analytical model
// fails loudly. Shapes are chosen so every expression is an integer.
func TestGoldenTable2Asymptotics(t *testing.T) {
	check := func(name string, got costmodel.PaperRow, flops, words, msgs, mem float64) {
		t.Helper()
		if got.Flops != flops || got.Words != words || got.Messages != msgs || got.Memory != mem {
			t.Errorf("%s: got {flops %v, words %v, msgs %v, mem %v}, want {%v, %v, %v, %v}",
				name, got.Flops, got.Words, got.Messages, got.Memory, flops, words, msgs, mem)
		}
	}

	// Squarish: m=1024, n=256, k=8, p=16 → m/p = 64 < n, so HPC-NMF
	// takes the √(mnk²/p) = √1048576 = 1024 branch.
	rows := costmodel.Table2(1024, 256, 8, 16)
	check("square/Naive", rows[0], 212992, 10240, 4, 26624)
	check("square/HPC-NMF", rows[1], 131072, 1024, 4, 17408)
	if rows[1].Algorithm != "HPC-NMF (m/p<n)" {
		t.Errorf("square branch label = %q", rows[1].Algorithm)
	}
	check("square/Lower bound", rows[2], 0, 1024, 4, 17024)

	// Tall-skinny: m=16384, n=64, k=8, p=16 → m/p = 1024 > n, so
	// HPC-NMF moves n·k = 512 words (the 1D-grid regime).
	rows = costmodel.Table2(16384, 64, 8, 16)
	check("tall/Naive", rows[0], 1576960, 131584, 4, 197120)
	check("tall/HPC-NMF", rows[1], 524288, 512, 4, 74240)
	if rows[1].Algorithm != "HPC-NMF (m/p>n)" {
		t.Errorf("tall branch label = %q", rows[1].Algorithm)
	}
	check("tall/Lower bound", rows[2], 0, 512, 4, 73760)
}

// TestGoldenHPCExactSquareVsTallGrid pins the exact per-collective
// critical-path counts on a square and a tall grid of the same
// problem (m=n=64, k=4, p=4, dense).
func TestGoldenHPCExactSquareVsTallGrid(t *testing.T) {
	square := costmodel.HPCExact(64, 64, 4, grid.New(2, 2), 1024)
	if square.AllGather.Msgs != 2 || square.AllGather.Words != 128 {
		t.Errorf("2x2 AllGather = %+v, want {2 128}", square.AllGather)
	}
	if square.ReduceScatter.Msgs != 2 || square.ReduceScatter.Words != 128 {
		t.Errorf("2x2 ReduceScatter = %+v, want {2 128}", square.ReduceScatter)
	}
	if square.AllReduce.Msgs != 8 || square.AllReduce.Words != 48 {
		t.Errorf("2x2 AllReduce = %+v, want {8 48}", square.AllReduce)
	}
	if square.FlopsMM != 16384 || square.FlopsGram != 640 {
		t.Errorf("2x2 flops = MM %d Gram %d, want 16384/640", square.FlopsMM, square.FlopsGram)
	}

	tall := costmodel.HPCExact(64, 64, 4, grid.New(4, 1), 1024)
	// Only the proc-column collectives remain, each moving
	// (n/pc − n/p)·k = (64−16)·4 = 192 words in ⌈log₂4⌉ = 2 messages.
	if tall.AllGather.Msgs != 2 || tall.AllGather.Words != 192 {
		t.Errorf("4x1 AllGather = %+v, want {2 192}", tall.AllGather)
	}
	if tall.ReduceScatter.Msgs != 2 || tall.ReduceScatter.Words != 192 {
		t.Errorf("4x1 ReduceScatter = %+v, want {2 192}", tall.ReduceScatter)
	}
	if tall.AllReduce != square.AllReduce {
		t.Errorf("AllReduce should not depend on grid shape: %+v vs %+v", tall.AllReduce, square.AllReduce)
	}
	// The square grid moves fewer words on this square problem — the
	// §5.2 argument the autotuner automates.
	if square.TotalWords() >= tall.TotalWords() {
		t.Errorf("square grid words %d not below tall grid words %d",
			square.TotalWords(), tall.TotalWords())
	}
}

// TestMeasuredMatchesModelOn2x2 runs HPC-NMF on a 2×2 grid and
// requires the measured per-iteration traffic to equal the exact
// model to the word — the conformance pin between analysis and
// implementation.
func TestMeasuredMatchesModelOn2x2(t *testing.T) {
	const m, n, k = 64, 48, 4
	g := grid.New(2, 2)
	a := core.WrapDense(datasets.DSYN(m, n, 11))
	res, err := core.RunHPC(a, g, core.Options{K: k, MaxIter: 3, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	pred := costmodel.HPCExact(m, n, k, g, int64(m*n/4))
	b := res.Breakdown
	if got := b.Words[perf.TaskAllGather]; got != pred.AllGather.Words {
		t.Errorf("AllGather words = %d, model %d", got, pred.AllGather.Words)
	}
	if got := b.Msgs[perf.TaskAllGather]; got != pred.AllGather.Msgs {
		t.Errorf("AllGather msgs = %d, model %d", got, pred.AllGather.Msgs)
	}
	if got := b.Words[perf.TaskReduceScatter]; got != pred.ReduceScatter.Words {
		t.Errorf("ReduceScatter words = %d, model %d", got, pred.ReduceScatter.Words)
	}
	if got := b.Msgs[perf.TaskReduceScatter]; got != pred.ReduceScatter.Msgs {
		t.Errorf("ReduceScatter msgs = %d, model %d", got, pred.ReduceScatter.Msgs)
	}
	if got := b.Words[perf.TaskAllReduce]; got != pred.AllReduce.Words {
		t.Errorf("AllReduce words = %d, model %d", got, pred.AllReduce.Words)
	}
	if got := b.Msgs[perf.TaskAllReduce]; got != pred.AllReduce.Msgs {
		t.Errorf("AllReduce msgs = %d, model %d", got, pred.AllReduce.Msgs)
	}
	if got := b.Flops[perf.TaskMM]; got != pred.FlopsMM {
		t.Errorf("MM flops = %d, model %d", got, pred.FlopsMM)
	}
	// The recorded forecast on the Result must price exactly this
	// prediction under the run's model constants.
	e := perf.Edison()
	if want := pred.Seconds(e); res.GridPredictedSeconds != want {
		t.Errorf("GridPredictedSeconds = %v, want %v", res.GridPredictedSeconds, want)
	}
	if res.Grid != g {
		t.Errorf("Result.Grid = %v, want %v", res.Grid, g)
	}
}

// dense is the Problem of a dense m×n matrix at rank k.
func dense(m, n, k int) costmodel.Problem {
	return costmodel.Problem{M: m, N: n, K: k, NNZ: int64(m) * int64(n)}
}

// TestAutoGridPicksModeledArgmin verifies Plan's row 0 is the
// minimum-modeled-time feasible factorization for three aspect ratios
// — tall, square, and wide — by brute-forcing the candidate table.
func TestAutoGridPicksModeledArgmin(t *testing.T) {
	e := perf.Edison()
	for _, tc := range []struct {
		name       string
		m, n       int
		wantTall   bool // chosen PR ≥ PC
		wantSquare bool
	}{
		{"tall", 4096, 64, true, false},
		{"square", 1024, 1024, false, true},
		{"wide", 64, 4096, false, false},
	} {
		const k, p = 8, 16
		pb := dense(tc.m, tc.n, k)
		ranked, err := costmodel.Plan(pb, p, e)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		got := ranked[0].Grid
		best := math.Inf(1)
		var bestG grid.Grid
		for _, g := range grid.Factorizations(p) {
			if grid.Feasible(tc.m, tc.n, k, g.PR, g.PC) != nil {
				continue
			}
			if s := costmodel.HPCExact(tc.m, tc.n, k, g, pb.NNZ/int64(p)).Seconds(e); s < best {
				best, bestG = s, g
			}
		}
		if got != bestG {
			t.Errorf("%s: Plan row 0 = %v, brute-force argmin %v", tc.name, got, bestG)
		}
		if ranked[0].Seconds != best || ranked[0].Pred.Seconds(e) != best {
			t.Errorf("%s: winner priced at %v (Pred %v), argmin cost %v", tc.name,
				ranked[0].Seconds, ranked[0].Pred.Seconds(e), best)
		}
		// An explicit grid is priced by the same rule the plan ranks by.
		if one := pb.Price(got, e); one != ranked[0] {
			t.Errorf("%s: Price(%v) = %+v, plan row %+v", tc.name, got, one, ranked[0])
		}
		switch {
		case tc.wantSquare && got.PR != got.PC:
			t.Errorf("square problem picked %v", got)
		case tc.wantTall && got.PR < got.PC:
			t.Errorf("tall problem picked %v", got)
		case !tc.wantTall && !tc.wantSquare && got.PC < got.PR:
			t.Errorf("wide problem picked %v", got)
		}
	}
}

// TestGridsOrderedCheapestFirst checks the plan's ordering and what
// it returns when no factorization is feasible: the closed-form
// fallback grid next to the typed error.
func TestGridsOrderedCheapestFirst(t *testing.T) {
	e := perf.Edison()
	cands, err := costmodel.Plan(dense(1024, 1024, 8), 16, e)
	if err != nil {
		t.Fatal(err)
	}
	if len(cands) != len(grid.Factorizations(16)) {
		t.Fatalf("expected all %d factorizations feasible, got %d", len(grid.Factorizations(16)), len(cands))
	}
	for i := 1; i < len(cands); i++ {
		if cands[i].Seconds < cands[i-1].Seconds {
			t.Fatalf("candidates out of order at %d: %v then %v", i, cands[i-1], cands[i])
		}
	}
	cands, err = costmodel.Plan(dense(5, 5, 1), 7, e)
	if !errors.Is(err, grid.ErrNoFeasibleGrid) {
		t.Fatalf("infeasible Plan error = %v, want ErrNoFeasibleGrid", err)
	}
	if len(cands) != 1 || cands[0].Grid != grid.Choose(5, 5, 7) {
		t.Fatalf("infeasible Plan rows = %v, want only grid.Choose's %v", cands, grid.Choose(5, 5, 7))
	}
}

// TestPlanPricesSparseAtHeaviestBlock: a CSR is priced at each
// candidate's heaviest 2D block, a dense matrix of the same shape and
// nnz at the even split — so on a skewed matrix every row's MM flops
// are at least the even-split ones, some strictly more, and the two
// rules can rank the same candidates differently.
func TestPlanPricesSparseAtHeaviestBlock(t *testing.T) {
	e := perf.Edison()
	const k, p = 4, 8
	sp := sparse.RandomPowerLaw(256, 6, rng.New(17))
	even := costmodel.Problem{M: sp.Rows, N: sp.Cols, K: k, NNZ: int64(sp.NNZ())}
	skew := even
	skew.CSR = sp
	evenRows, err := costmodel.Plan(even, p, e)
	if err != nil {
		t.Fatal(err)
	}
	skewRows, err := costmodel.Plan(skew, p, e)
	if err != nil {
		t.Fatal(err)
	}
	evenFlops := map[grid.Grid]int64{}
	for _, c := range evenRows {
		evenFlops[c.Grid] = c.Pred.FlopsMM
	}
	heavier := 0
	for _, c := range skewRows {
		heaviest := partition.Heaviest(partition.BlockNNZ(sp, c.Grid))
		if want := 4 * int64(heaviest) * k; c.Pred.FlopsMM != want {
			t.Errorf("%v: MM flops %d, want 4·%d·k = %d", c.Grid, c.Pred.FlopsMM, heaviest, want)
		}
		if c.Pred.FlopsMM < evenFlops[c.Grid] {
			t.Errorf("%v: heaviest-block flops %d below the even split's %d", c.Grid, c.Pred.FlopsMM, evenFlops[c.Grid])
		}
		if c.Pred.FlopsMM > evenFlops[c.Grid] {
			heavier++
		}
	}
	if heavier == 0 {
		t.Error("no candidate priced above the even split on a power-law matrix")
	}
}
