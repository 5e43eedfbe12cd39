package grid

import (
	"errors"
	"fmt"
)

// ErrNoFeasibleGrid marks the case where no pr×pc factorization of p
// passes Feasible for the problem shape (match with errors.Is). The
// grid decision, costmodel.Plan, wraps it.
var ErrNoFeasibleGrid = errors.New("no feasible grid")

// Factorizations returns every pr×pc factorization of p (pr·pc = p)
// in ascending-pr order, including the degenerate 1×p and p×1 shapes.
func Factorizations(p int) []Grid {
	var out []Grid
	for pr := 1; pr <= p; pr++ {
		if p%pr == 0 {
			out = append(out, Grid{PR: pr, PC: p / pr})
		}
	}
	return out
}

// Feasible reports whether a pr×pc grid can host an m×n rank-k
// factorization with non-degenerate local blocks: every processor row
// needs at least one matrix row and every processor column at least
// one matrix column (pr ≤ m, pc ≤ n), and the local factor blocks
// must not be thinner than the rank (k ≤ min(m/pr, n/pc)) — past that
// point the all-gathered normal-equations systems are rank-deficient
// by construction and the grid only adds communication. Returns nil
// when feasible, a descriptive error otherwise.
func Feasible(m, n, k, pr, pc int) error {
	if pr < 1 || pc < 1 {
		return fmt.Errorf("grid: invalid %dx%d", pr, pc)
	}
	if pr > m {
		return fmt.Errorf("%dx%d: %d processor rows exceed the %d matrix rows", pr, pc, pr, m)
	}
	if pc > n {
		return fmt.Errorf("%dx%d: %d processor columns exceed the %d matrix columns", pr, pc, pc, n)
	}
	if k > m/pr || k > n/pc {
		return fmt.Errorf("%dx%d: local blocks (%d×%d of A) are thinner than rank k=%d",
			pr, pc, m/pr, n/pc, k)
	}
	return nil
}
