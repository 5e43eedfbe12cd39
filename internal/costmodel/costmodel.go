// Package costmodel implements the paper's per-iteration cost
// analysis (Table 2 and §5) in two forms:
//
//   - Exact predictions of the message and word counts the runtime's
//     collective algorithms generate, used by tests to verify that the
//     implementation's measured traffic matches the analysis to the
//     word (possible because the mpi package implements the real
//     collective schedules).
//
//   - The paper's asymptotic Table 2 expressions, used by the
//     experiment harness to print the analytical comparison.
//
// Exact formulas assume block sizes divide evenly and power-of-two
// communicators (recursive doubling/halving paths); the test fixtures
// choose such shapes.
//
// The exact form is also what decides which grid a run uses: Plan
// (grids.go) prices every feasible factorization of p with it, once,
// and every selector and forecast in the repo reads Plan's result.
package costmodel

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"hpcnmf/internal/grid"
	"hpcnmf/internal/partition"
	"hpcnmf/internal/perf"
)

// Counts is a per-task traffic prediction for one rank along the
// critical path (max over ranks).
type Counts struct {
	Msgs  int64
	Words int64
}

// Prediction summarizes one algorithm's per-iteration costs.
type Prediction struct {
	AllGather     Counts
	ReduceScatter Counts
	AllReduce     Counts
	// FlopsMM and FlopsGram are the local multiply and Gram flops per
	// rank (NLS flops are data-dependent and measured, not predicted).
	FlopsMM   int64
	FlopsGram int64
}

// TotalWords sums communication volume across collective types.
func (p Prediction) TotalWords() int64 {
	return p.AllGather.Words + p.ReduceScatter.Words + p.AllReduce.Words
}

// TotalMsgs sums message counts across collective types.
func (p Prediction) TotalMsgs() int64 {
	return p.AllGather.Msgs + p.ReduceScatter.Msgs + p.AllReduce.Msgs
}

// ceilLog2 returns ⌈log₂ n⌉ (0 for n ≤ 1).
func ceilLog2(n int) int64 {
	c := int64(0)
	for v := 1; v < n; v <<= 1 {
		c++
	}
	return c
}

// NaiveExact predicts the per-rank, per-iteration traffic of
// Naive-Parallel-NMF (Algorithm 2) with m, n divisible by p: two
// all-gathers moving the full factor matrices. nnzPerRank is the
// stored-entry count of one rank's row block plus its column block
// (2·m·n/p when dense).
func NaiveExact(m, n, k, p int, nnzPerRank int64) Prediction {
	return Prediction{
		AllGather: Counts{
			Msgs:  2 * ceilLog2(p),
			Words: int64(m-m/p)*int64(k) + int64(n-n/p)*int64(k),
		},
		FlopsMM:   2 * nnzPerRank * int64(k),
		FlopsGram: int64(m+n) * int64(k) * int64(k+1),
	}
}

// HPCExact predicts the per-rank, per-iteration traffic of HPC-NMF
// (Algorithm 3) on grid g, with m divisible by pr·pc and n divisible
// by pc·pr, power-of-two communicator sizes, and k² ≥ p (the
// Rabenseifner all-reduce path). nnzPerRank is nnz(Aij)
// (m·n/p when dense).
func HPCExact(m, n, k int, g grid.Grid, nnzPerRank int64) Prediction {
	p := g.Size()
	k64 := int64(k)
	var pred Prediction
	// Lines 5 & 11: all-gather H within proc columns (size pr) and W
	// within proc rows (size pc).
	if g.PR > 1 {
		pred.AllGather.Msgs += ceilLog2(g.PR)
		pred.AllGather.Words += int64(n/g.PC-n/p) * k64
	}
	if g.PC > 1 {
		pred.AllGather.Msgs += ceilLog2(g.PC)
		pred.AllGather.Words += int64(m/g.PR-m/p) * k64
	}
	// Lines 7 & 13: reduce-scatter of the product contributions.
	if g.PC > 1 {
		pred.ReduceScatter.Msgs += ceilLog2(g.PC)
		pred.ReduceScatter.Words += int64(m/g.PR-m/p) * k64
	}
	if g.PR > 1 {
		pred.ReduceScatter.Msgs += ceilLog2(g.PR)
		pred.ReduceScatter.Words += int64(n/g.PC-n/p) * k64
	}
	// Lines 4 & 10: two all-reduces of the k×k Gram matrices
	// (Rabenseifner: reduce-scatter + all-gather over k² words).
	if p > 1 {
		perAllReduce := 2 * (k64*k64 - int64(k*k/p))
		pred.AllReduce.Msgs = 4 * ceilLog2(p)
		pred.AllReduce.Words = 2 * perAllReduce
	}
	pred.FlopsMM = 4 * nnzPerRank * k64
	pred.FlopsGram = int64((m+n)/p) * k64 * int64(k+1)
	return pred
}

// Advice is the model's per-algorithm cost forecast for a problem.
type Advice struct {
	Algorithm string
	// Seconds is the predicted per-iteration time under the α-β-γ
	// model (NLS excluded — it is the same work for every algorithm).
	Seconds float64
}

// Advise is the algorithm-selection reading of a Plan: Naive, the 1D
// p×1 row (when feasible) and the plan's row 0, ranked fastest first
// (a p×1 row 0 ties with the 1D row and stays ahead of it). It is the
// quantitative form of the paper's qualitative guidance: 2D grids for
// squarish matrices, 1D for tall-skinny, Naive never. ranked is Plan's
// slice for the same pb and constants; an empty one yields nil.
func Advise(pb Problem, ranked []GridCandidate, model perf.Model) []Advice {
	if len(ranked) == 0 {
		return nil
	}
	best := ranked[0]
	out := []Advice{{Algorithm: fmt.Sprintf("HPC-NMF-%dx%d", best.Grid.PR, best.Grid.PC), Seconds: best.Seconds}}
	for _, c := range ranked {
		if c.Grid.PC == 1 {
			out = append(out, Advice{Algorithm: "HPC-NMF-1D", Seconds: c.Seconds})
		}
	}
	p := best.Grid.Size()
	// Rank i of Algorithm 2 holds row block i and column block i; like
	// Price, charge the heaviest rank of a CSR, not the even split.
	rankNNZ := 2 * pb.NNZ / int64(p)
	if pb.CSR != nil {
		rows := partition.BlockNNZ(pb.CSR, grid.Grid{PR: p, PC: 1})
		cols := partition.BlockNNZ(pb.CSR, grid.Grid{PR: 1, PC: p})
		rankNNZ = 0
		for i := 0; i < p; i++ {
			rankNNZ = max(rankNNZ, int64(rows[i][0]+cols[0][i]))
		}
	}
	naive := NaiveExact(pb.M, pb.N, pb.K, p, rankNNZ)
	out = append(out, Advice{Algorithm: "Naive", Seconds: naive.Seconds(model)})
	sort.SliceStable(out, func(i, j int) bool { return out[i].Seconds < out[j].Seconds })
	return out
}

// PaperRow is one line of Table 2 rendered with concrete parameters.
type PaperRow struct {
	Algorithm string
	Flops     float64
	Words     float64
	Messages  float64
	Memory    float64
}

// Table2 evaluates the paper's Table 2 asymptotic expressions (dense
// case, constants dropped as in the paper) for the given problem.
func Table2(m, n, k, p int) []PaperRow {
	mf, nf, kf, pf := float64(m), float64(n), float64(k), float64(p)
	logp := max(math.Log2(pf), 1)
	naive := PaperRow{
		Algorithm: "Naive",
		Flops:     mf*nf*kf/pf + (mf+nf)*kf*kf,
		Words:     (mf + nf) * kf,
		Messages:  logp,
		Memory:    mf*nf/pf + (mf+nf)*kf,
	}
	var hpc PaperRow
	if mf/pf > nf {
		hpc = PaperRow{
			Algorithm: "HPC-NMF (m/p>n)",
			Flops:     mf * nf * kf / pf,
			Words:     nf * kf,
			Messages:  logp,
			Memory:    mf*nf/pf + mf*kf/pf + nf*kf,
		}
	} else {
		hpc = PaperRow{
			Algorithm: "HPC-NMF (m/p<n)",
			Flops:     mf * nf * kf / pf,
			Words:     math.Sqrt(mf * nf * kf * kf / pf),
			Messages:  logp,
			Memory:    mf*nf/pf + math.Sqrt(mf*nf*kf*kf/pf),
		}
	}
	lower := PaperRow{
		Algorithm: "Lower bound",
		Words:     math.Min(math.Sqrt(mf*nf*kf*kf/pf), nf*kf),
		Messages:  logp,
		Memory:    mf*nf/pf + (mf+nf)*kf/pf,
	}
	return []PaperRow{naive, hpc, lower}
}

// FormatTable2 renders Table2 rows as an aligned text table.
func FormatTable2(rows []PaperRow) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-18s %14s %14s %10s %14s\n", "algorithm", "flops", "words", "messages", "memory")
	for _, r := range rows {
		flops := "-"
		if r.Flops > 0 {
			flops = fmt.Sprintf("%.3g", r.Flops)
		}
		fmt.Fprintf(&sb, "%-18s %14s %14.3g %10.1f %14.3g\n", r.Algorithm, flops, r.Words, r.Messages, r.Memory)
	}
	return sb.String()
}
