// Package grid provides processor-grid and block-distribution
// arithmetic for the distributed NMF algorithms: mapping ranks to
// pr×pc grid coordinates, splitting m rows (or n columns) into p
// blocks that may differ in size by one, and the paper's closed-form
// grid rule Choose (§5: pick pr, pc so that m/pr ≈ n/pc ≈ √(mn/p),
// degenerating to pr = p, pc = 1 when the matrix is tall and skinny,
// i.e. m/p > n). Which grid a run uses is decided in one place,
// costmodel.Plan; this package supplies its inputs — Factorizations,
// Feasible and Choose — and holds no selection logic of its own.
package grid

import "fmt"

// Grid is a pr×pc processor grid. Ranks are laid out row-major:
// rank = i·pc + j for grid coordinates (i, j).
type Grid struct {
	PR, PC int
}

// New validates and returns a grid.
func New(pr, pc int) Grid {
	if pr <= 0 || pc <= 0 {
		panic(fmt.Sprintf("grid: invalid %dx%d", pr, pc))
	}
	return Grid{PR: pr, PC: pc}
}

// Size returns the number of processors pr·pc.
func (g Grid) Size() int { return g.PR * g.PC }

// Rank returns the rank at grid coordinates (i, j).
func (g Grid) Rank(i, j int) int {
	if i < 0 || i >= g.PR || j < 0 || j >= g.PC {
		panic(fmt.Sprintf("grid: coords (%d,%d) outside %dx%d", i, j, g.PR, g.PC))
	}
	return i*g.PC + j
}

// Coords returns the grid coordinates of rank r.
func (g Grid) Coords(r int) (i, j int) {
	if r < 0 || r >= g.Size() {
		panic(fmt.Sprintf("grid: rank %d outside %dx%d", r, g.PR, g.PC))
	}
	return r / g.PC, r % g.PC
}

// RowMembers returns the ranks of grid row i (those sharing the first
// coordinate), in column order. These form the "processor row"
// communicator of Algorithm 3.
func (g Grid) RowMembers(i int) []int {
	out := make([]int, g.PC)
	for j := 0; j < g.PC; j++ {
		out[j] = g.Rank(i, j)
	}
	return out
}

// ColMembers returns the ranks of grid column j, in row order. These
// form the "processor column" communicator of Algorithm 3.
func (g Grid) ColMembers(j int) []int {
	out := make([]int, g.PR)
	for i := 0; i < g.PR; i++ {
		out[i] = g.Rank(i, j)
	}
	return out
}

// Choose selects the grid shape for p processors and an m×n matrix
// that minimizes per-iteration communication volume. From §5, the
// all-gather + reduce-scatter bandwidth is proportional to
// (pc−1)·m/p + (pr−1)·n/p (per unit k), so Choose scans the divisor
// pairs of p for the minimizer. For tall-skinny matrices (m/p ≥ n)
// this naturally degenerates to pr = p, pc = 1.
func Choose(m, n, p int) Grid {
	best := Grid{PR: p, PC: 1}
	bestCost := chooseCost(m, n, p, p, 1)
	for pr := 1; pr <= p; pr++ {
		if p%pr != 0 {
			continue
		}
		pc := p / pr
		if cost := chooseCost(m, n, p, pr, pc); cost < bestCost {
			best = Grid{PR: pr, PC: pc}
			bestCost = cost
		}
	}
	return best
}

func chooseCost(m, n, p, pr, pc int) float64 {
	return float64(pc-1)*float64(m)/float64(p) + float64(pr-1)*float64(n)/float64(p)
}

// BlockCounts splits n items into p contiguous blocks whose sizes
// differ by at most one: block i gets n/p items plus one extra when
// i < n mod p.
func BlockCounts(n, p int) []int {
	counts := make([]int, p)
	q, r := n/p, n%p
	for i := range counts {
		counts[i] = q
		if i < r {
			counts[i]++
		}
	}
	return counts
}

// BlockSize returns the size of block i of n items over p blocks.
func BlockSize(n, p, i int) int {
	if i < n%p {
		return n/p + 1
	}
	return n / p
}

// BlockOffset returns the starting index of block i.
func BlockOffset(n, p, i int) int {
	q, r := n/p, n%p
	if i < r {
		return i * (q + 1)
	}
	return r*(q+1) + (i-r)*q
}

// BlockRange returns [lo, hi) for block i.
func BlockRange(n, p, i int) (lo, hi int) {
	lo = BlockOffset(n, p, i)
	return lo, lo + BlockSize(n, p, i)
}

// ScaleCounts multiplies each block count by w (e.g. converting row
// counts to word counts for rows of width w).
func ScaleCounts(counts []int, w int) []int {
	out := make([]int, len(counts))
	for i, c := range counts {
		out[i] = c * w
	}
	return out
}
