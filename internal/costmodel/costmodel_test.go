package costmodel_test

import (
	"strings"
	"testing"

	"hpcnmf/internal/core"
	"hpcnmf/internal/costmodel"
	"hpcnmf/internal/datasets"
	"hpcnmf/internal/grid"
	"hpcnmf/internal/perf"
	"hpcnmf/internal/rng"
	"hpcnmf/internal/sparse"
)

// TestNaiveCountsMatchModel runs the actual Naive algorithm and checks
// the measured per-iteration traffic equals the exact model to the
// word. Dims divide p evenly and p is a power of two so the exact
// formulas apply.
func TestNaiveCountsMatchModel(t *testing.T) {
	const m, n, k, p = 64, 48, 4, 4
	a := core.WrapDense(datasets.DSYN(m, n, 5))
	opts := core.Options{K: k, MaxIter: 3, Seed: 9} // no error all-reduce
	res, err := core.RunNaive(a, p, opts)
	if err != nil {
		t.Fatal(err)
	}
	pred := costmodel.NaiveExact(m, n, k, p, int64(2*m*n/p))
	b := res.Breakdown
	if got := b.Msgs[perf.TaskAllGather]; got != pred.AllGather.Msgs {
		t.Errorf("AllGather msgs = %d, model %d", got, pred.AllGather.Msgs)
	}
	if got := b.Words[perf.TaskAllGather]; got != pred.AllGather.Words {
		t.Errorf("AllGather words = %d, model %d", got, pred.AllGather.Words)
	}
	if got := b.Msgs[perf.TaskReduceScatter]; got != 0 {
		t.Errorf("Naive performed %d reduce-scatter msgs", got)
	}
	if got := b.Msgs[perf.TaskAllReduce]; got != 0 {
		t.Errorf("Naive performed %d all-reduce msgs", got)
	}
	if got := b.Flops[perf.TaskMM]; got != pred.FlopsMM {
		t.Errorf("MM flops = %d, model %d", got, pred.FlopsMM)
	}
	if got := b.Flops[perf.TaskGram]; got != pred.FlopsGram {
		t.Errorf("Gram flops = %d, model %d", got, pred.FlopsGram)
	}
}

// TestHPCCountsMatchModel does the same for HPC-NMF on a 2D grid —
// this is the reproduction of Table 2's HPC-NMF row.
func TestHPCCountsMatchModel(t *testing.T) {
	const m, n, k = 64, 48, 4
	for _, g := range []grid.Grid{grid.New(2, 2), grid.New(4, 1), grid.New(1, 4), grid.New(4, 4), grid.New(2, 4)} {
		a := core.WrapDense(datasets.DSYN(m, n, 6))
		opts := core.Options{K: k, MaxIter: 3, Seed: 9}
		res, err := core.RunHPC(a, g, opts)
		if err != nil {
			t.Fatalf("grid %dx%d: %v", g.PR, g.PC, err)
		}
		pred := costmodel.HPCExact(m, n, k, g, int64(m*n/g.Size()))
		b := res.Breakdown
		type pair struct {
			name string
			got  int64
			want int64
		}
		for _, pr := range []pair{
			{"AllGather msgs", b.Msgs[perf.TaskAllGather], pred.AllGather.Msgs},
			{"AllGather words", b.Words[perf.TaskAllGather], pred.AllGather.Words},
			{"ReduceScatter msgs", b.Msgs[perf.TaskReduceScatter], pred.ReduceScatter.Msgs},
			{"ReduceScatter words", b.Words[perf.TaskReduceScatter], pred.ReduceScatter.Words},
			{"AllReduce msgs", b.Msgs[perf.TaskAllReduce], pred.AllReduce.Msgs},
			{"AllReduce words", b.Words[perf.TaskAllReduce], pred.AllReduce.Words},
			{"MM flops", b.Flops[perf.TaskMM], pred.FlopsMM},
			{"Gram flops", b.Flops[perf.TaskGram], pred.FlopsGram},
		} {
			if pr.got != pr.want {
				t.Errorf("grid %dx%d: %s = %d, model %d", g.PR, g.PC, pr.name, pr.got, pr.want)
			}
		}
	}
}

// TestHPCBeatsNaiveOnWords reproduces the headline of Table 2: for
// squarish matrices the HPC-NMF communication volume O(√(mnk²/p)) is
// asymptotically below Naive's O((m+n)k).
func TestHPCBeatsNaiveOnWords(t *testing.T) {
	const m, n, k = 1024, 768, 8
	for _, p := range []int{4, 16, 64} {
		g := grid.Choose(m, n, p)
		hpc := costmodel.HPCExact(m, n, k, g, int64(m*n/p))
		naive := costmodel.NaiveExact(m, n, k, p, int64(2*m*n/p))
		if hpc.TotalWords() >= naive.TotalWords() {
			t.Errorf("p=%d: HPC words %d ≥ Naive words %d", p, hpc.TotalWords(), naive.TotalWords())
		}
	}
}

// TestHPCWordsShrinkWithP: per-rank bandwidth ~ √(mnk²/p) decreases
// with p, while Naive's stays ~(m+n)k.
func TestHPCWordsShrinkWithP(t *testing.T) {
	const m, n, k = 1024, 1024, 8
	w4 := costmodel.HPCExact(m, n, k, grid.New(2, 2), int64(m*n/4)).TotalWords()
	w64 := costmodel.HPCExact(m, n, k, grid.New(8, 8), int64(m*n/64)).TotalWords()
	if w64 >= w4 {
		t.Fatalf("HPC words did not shrink with p: p=4 %d, p=64 %d", w4, w64)
	}
	n4 := costmodel.NaiveExact(m, n, k, 4, int64(2*m*n/4)).TotalWords()
	n64 := costmodel.NaiveExact(m, n, k, 64, int64(2*m*n/64)).TotalWords()
	// Naive volume is essentially flat: shrink under 10%.
	if float64(n64) < float64(n4)*0.9 {
		t.Fatalf("Naive words unexpectedly scalable: p=4 %d, p=64 %d", n4, n64)
	}
}

// TestTallSkinny1DOptimal: for m/p > n the chosen grid must be 1D and
// its volume O(nk), matching Table 2's second row.
func TestTallSkinny1DOptimal(t *testing.T) {
	const m, n, k, p = 65536, 64, 8, 16
	g := grid.Choose(m, n, p)
	if g.PC != 1 {
		t.Fatalf("Choose gave %dx%d for tall-skinny", g.PR, g.PC)
	}
	pred := costmodel.HPCExact(m, n, k, g, int64(m*n/p))
	// All-gather + reduce-scatter volume ≈ 2·(n − n/p)·k < 2nk.
	if pred.AllGather.Words+pred.ReduceScatter.Words > int64(2*n*k) {
		t.Fatalf("1D volume %d exceeds 2nk", pred.AllGather.Words+pred.ReduceScatter.Words)
	}
}

func TestTable2Render(t *testing.T) {
	rows := costmodel.Table2(1728, 1152, 50, 16)
	if len(rows) != 3 {
		t.Fatalf("Table2 returned %d rows", len(rows))
	}
	if rows[1].Algorithm != "HPC-NMF (m/p<n)" {
		t.Fatalf("squarish case picked %q", rows[1].Algorithm)
	}
	if rows[0].Words <= rows[1].Words {
		t.Fatal("paper model: Naive words should exceed HPC-NMF words")
	}
	out := costmodel.FormatTable2(rows)
	for _, want := range []string{"Naive", "HPC-NMF", "Lower bound", "words"} {
		if !strings.Contains(out, want) {
			t.Fatalf("FormatTable2 missing %q:\n%s", want, out)
		}
	}
	tall := costmodel.Table2(1_000_000, 100, 10, 16)
	if tall[1].Algorithm != "HPC-NMF (m/p>n)" {
		t.Fatalf("tall-skinny case picked %q", tall[1].Algorithm)
	}
}

func TestCeilLog2(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want int64
	}{
		{1, 0}, {2, 1}, {3, 2}, {4, 2}, {5, 3}, {8, 3}, {9, 4}, {1024, 10},
	} {
		if got := costmodel.CeilLog2(tc.n); got != tc.want {
			t.Errorf("costmodel.CeilLog2(%d) = %d, want %d", tc.n, got, tc.want)
		}
	}
}

func TestAdviseRanksHPCFirst(t *testing.T) {
	// Squarish dense problem in the bandwidth-bound regime: the 2D
	// grid must be predicted fastest and Naive slowest.
	adv := adviseDense(t, 2048, 2048, 50, 16)
	if len(adv) != 3 {
		t.Fatalf("got %d rows", len(adv))
	}
	if adv[0].Algorithm != "HPC-NMF-4x4" {
		t.Fatalf("fastest predicted = %s", adv[0].Algorithm)
	}
	if adv[2].Algorithm != "Naive" {
		t.Fatalf("slowest predicted = %s", adv[2].Algorithm)
	}
	for i := 1; i < 3; i++ {
		if adv[i].Seconds < adv[i-1].Seconds {
			t.Fatal("advice not sorted")
		}
	}
}

func TestAdviseTallSkinnyPicks1D(t *testing.T) {
	adv := adviseDense(t, 1<<20, 64, 10, 16)
	// For m/p > n the plan's row 0 is 16x1, so the best-grid entry
	// coincides with 1D — it stays ahead of it, so the first row is
	// what RunParallel runs — and both must beat Naive.
	if adv[0].Algorithm != "HPC-NMF-16x1" || adv[1].Algorithm != "HPC-NMF-1D" || adv[0].Seconds != adv[1].Seconds {
		t.Fatalf("tall-skinny advice = %+v, want HPC-NMF-16x1 tied with and ahead of HPC-NMF-1D", adv)
	}
	if adv[len(adv)-1].Algorithm != "Naive" {
		t.Fatalf("Naive not slowest: %+v", adv)
	}
}

// adviseDense is Advise read off the Plan of a dense m×n problem
// under Edison constants.
func adviseDense(t *testing.T, m, n, k, p int) []costmodel.Advice {
	t.Helper()
	e := perf.Edison()
	pb := dense(m, n, k)
	ranked, err := costmodel.Plan(pb, p, e)
	if err != nil {
		t.Fatal(err)
	}
	return costmodel.Advise(pb, ranked, e)
}

// The Naive row is priced by the rule every HPC row uses: for a CSR,
// the heaviest rank's nnz(A_i) + nnz(Aⁱ), never below the even split;
// dense storage keeps the even 2·m·n/p.
func TestAdviseNaiveRowPricesHeaviestRank(t *testing.T) {
	e := perf.Edison()
	naiveRow := func(pb costmodel.Problem, p int) float64 {
		t.Helper()
		ranked, err := costmodel.Plan(pb, p, e)
		if err != nil {
			t.Fatal(err)
		}
		for _, a := range costmodel.Advise(pb, ranked, e) {
			if a.Algorithm == "Naive" {
				return a.Seconds
			}
		}
		t.Fatal("no Naive row")
		return 0
	}
	price := func(pb costmodel.Problem, p int, nnz int64) float64 {
		return costmodel.NaiveExact(pb.M, pb.N, pb.K, p, nnz).Seconds(e)
	}
	const k = 8
	skewed := false
	for _, tc := range []struct {
		nodes, deg, p int
		seed          uint64
	}{{256, 6, 4, 1}, {256, 6, 16, 2}, {300, 5, 6, 3}, {512, 8, 8, 4}} {
		a := sparse.RandomPowerLaw(tc.nodes, tc.deg, rng.New(tc.seed))
		pb := costmodel.Problem{M: a.Rows, N: a.Cols, K: k, NNZ: int64(a.NNZ()), CSR: a}
		// Per-rank counts straight off the CSR, independent of BlockNNZ.
		owner := func(idx, n int) int {
			for b, start := 0, 0; ; b++ {
				start += grid.BlockSize(n, tc.p, b)
				if idx < start {
					return b
				}
			}
		}
		perRank := make([]int64, tc.p)
		for i := 0; i < a.Rows; i++ {
			for q := a.RowPtr[i]; q < a.RowPtr[i+1]; q++ {
				perRank[owner(i, a.Rows)]++
				perRank[owner(a.ColIdx[q], a.Cols)]++
			}
		}
		var heaviest int64
		for _, c := range perRank {
			heaviest = max(heaviest, c)
		}
		even := 2 * pb.NNZ / int64(tc.p)
		got := naiveRow(pb, tc.p)
		if want := price(pb, tc.p, heaviest); got != want {
			t.Errorf("power-law n=%d p=%d: Naive row %v, want NaiveExact at the heaviest rank's %d entries = %v", tc.nodes, tc.p, got, heaviest, want)
		}
		if got < price(pb, tc.p, even) {
			t.Errorf("power-law n=%d p=%d: Naive row %v below the even-split price", tc.nodes, tc.p, got)
		}
		skewed = skewed || heaviest > even
	}
	if !skewed {
		t.Error("no case has a rank above the even split; the table does not exercise the rule")
	}
	for _, tc := range []struct{ m, n, p int }{{2048, 2048, 16}, {1 << 20, 64, 16}, {96, 640, 6}} {
		pb := dense(tc.m, tc.n, 10)
		if got, want := naiveRow(pb, tc.p), price(pb, tc.p, 2*pb.NNZ/int64(tc.p)); got != want {
			t.Errorf("dense %dx%d p=%d: Naive row %v, want the even-split %v", tc.m, tc.n, tc.p, got, want)
		}
	}
}
