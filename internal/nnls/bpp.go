package nnls

import (
	"errors"
	"math"
	"math/bits"
	"slices"
	"sync/atomic"

	"hpcnmf/internal/mat"
	"hpcnmf/internal/par"
)

// ErrNotConverged is returned when an exact solver exhausts its
// pivoting budget. The returned X is the best (clamped) iterate.
var ErrNotConverged = errors.New("nnls: solver did not converge within the iteration budget")

// BPP is the block principal pivoting method of Kim & Park (SISC
// 2011), the solver the paper builds on (§4.2). Starting from a
// partition of the variables into a passive set P (free) and an
// active set A (pinned at zero), it solves the unconstrained system
// on P, computes the dual y on A, and greedily swaps every infeasible
// variable between the sets at once ("full exchange"), falling back
// to single-variable exchanges when cycling is detected — the
// safeguard that makes the method finite.
//
// Columns sharing a passive set are solved together off one Cholesky
// factorization (the Grouping flag), the optimization that makes BPP
// competitive for the many-right-hand-side problems NMF generates.
//
// Columns are independent, so the r columns are cut into chunks of
// bppChunk columns and each chunk is copied into column-contiguous
// scratch, pivoted to convergence on its own bppState and scattered
// back. Under SolveCtx the workers of ctx.Pool claim chunks from a
// shared counter (one bppState per worker slot, kept on the instance);
// with no pool the chunks run inline. A column's arithmetic depends
// only on G, its own right-hand side and its own passive pattern — the
// Cholesky of G[P,P] is the group's, and the substitution subtracts
// the same products from a column in the same order whether it runs
// down that column alone or across a wide group's rows (see
// mat.CholSolveInto) — so X is bitwise independent of the pool width,
// of which worker takes which chunk, of the chunk width and of the
// group width. Stats (see its fields) sums Flops, Groups and
// ColumnRounds over the chunks.
//
// BPP implements ContextSolver: all scratch lives on the per-slot
// states, sized by k and the chunk width, and nothing is retained per
// passive pattern, so after the first call with a given k a serial
// SolveCtx allocates nothing whatever patterns arrive (the pooled path
// pays the pool's per-call bookkeeping). The states make a BPP value
// single-caller under SolveCtx — the same ownership discipline as
// mat.Workspace; Solve runs on fresh state and is safe to share.
type BPP struct {
	// MaxIter bounds pivoting rounds; 0 means a generous default.
	MaxIter int
	// Grouping enables solving same-passive-set columns together.
	// On by default via NewBPP; exposed for the ablation benchmark.
	Grouping bool

	// st holds one reusable chunk state per pool worker slot.
	st []bppState
}

// bppChunk is the number of columns pivoted together: at k = 20 a
// chunk's −F, z and X_P scratch and its patterns are ≈120 KB, resident
// in L2 for all of its rounds. It is a constant — never an option,
// never a function of the pool width — so the grouping, and with it
// Stats.Flops, is the same however the chunks are scheduled.
// bppTableBits sizes the pattern hash table at twice the chunk width
// or more.
const (
	bppChunk     = 250
	bppTableBits = 9
	_            = uint(1<<bppTableBits - 2*bppChunk) // table load ≤ ½
)

// bppProblem is what every chunk of one solve shares, read-only but
// for the disjoint column ranges of x.
type bppProblem struct {
	g, f, xInit, x *mat.Dense
	tol            float64
	maxIter        int
	grouping       bool
}

// bppState is one worker slot's scratch and its running totals for the
// current solve. Per-column vectors are column-contiguous (v[c*k+i],
// c local to the chunk); everything is rebuilt per chunk and per
// round, so no state outlives a solve except capacity.
type bppState struct {
	// nf is the chunk's copy of −F and gt is Gᵀ, the operands of the
	// dual as solveGroup accumulates it. z is the round's solution and
	// dual in one vector: x on a column's passive set, y on its active
	// set — the one value per variable the feasibility test reads (x is
	// 0 on the active set and y on the passive set by definition).
	nf, z []float64
	gt    mat.Dense
	// key is the passive set of every column and its only form: ⌈k/64⌉
	// words per column, bit i set when variable i is free. bad is one
	// column's infeasible set in the same packing.
	key, bad []uint64
	// Kim–Park anti-cycling state per column: alpha full exchanges
	// remain before falling back; beta is the best (smallest)
	// infeasibility count seen.
	alpha, beta [bppChunk]int
	cols        [bppChunk]int // unconverged columns, ascending
	// Grouping of a round: group gi is order[start[gi]:start[gi+1]],
	// rep[gi] its first column; table maps a pattern hash to gi+1.
	order, gid, rep, count [bppChunk]int
	start                  [bppChunk + 1]int
	table                  [1 << bppTableBits]int32
	pidx                   []int
	gpp, xp                mat.Dense     // G[P,P] and F[P,cols] → X[P,cols] of one group
	ws                     mat.Workspace // SolveSPDInto's factor and jittered copy

	stats Stats
	err   error
}

// NewBPP returns a BPP solver with column grouping enabled.
func NewBPP() *BPP { return &BPP{MaxIter: 0, Grouping: true} }

// Name implements Solver.
func (s *BPP) Name() string { return "BPP" }

// Solve implements Solver. It runs on private state, so a shared BPP
// instance may Solve concurrently (SolveCtx may not).
func (s *BPP) Solve(g, f, xInit *mat.Dense) (*mat.Dense, Stats, error) {
	if err := checkDims(g, f, xInit); err != nil {
		return nil, Stats{}, err
	}
	x := mat.NewDense(f.Rows, f.Cols)
	st, err := s.solveChunks(make([]bppState, 1), nil, g, f, xInit, x)
	if err != nil && !errors.Is(err, ErrNotConverged) {
		return nil, st, err
	}
	return x, st, err
}

// SolveCtx implements ContextSolver; see the type comment for the
// threading, allocation and ownership contract. Results are bitwise
// identical to Solve from the same inputs at any pool width.
func (s *BPP) SolveCtx(ctx *Context, g, f, xInit, dst *mat.Dense) (Stats, error) {
	if err := checkDims(g, f, xInit); err != nil {
		return Stats{}, err
	}
	if err := checkDst(f, dst); err != nil {
		return Stats{}, err
	}
	_, pool := ctx.resources()
	if w := pool.Workers(); len(s.st) < w {
		s.st = append(s.st, make([]bppState, w-len(s.st))...)
	}
	return s.solveChunks(s.st, pool, g, f, xInit, dst)
}

// solveChunks is the one pivoting core under Solve and SolveCtx. The
// tolerance is taken over the whole problem before it is cut, so a
// column's zero test does not depend on which chunk it lands in. A
// chunk that exhausts its rounds clamps its own columns and the others
// still finish; the solve then reports ErrNotConverged unless some
// chunk failed outright, which wins. x == xInit aliasing is fine: a
// chunk reads its warm-start columns before it writes them.
func (s *BPP) solveChunks(states []bppState, pool *par.Pool, g, f, xInit, x *mat.Dense) (Stats, error) {
	p := bppProblem{g: g, f: f, xInit: xInit, x: x, tol: bppTolerance(g, f), maxIter: s.MaxIter, grouping: s.Grouping}
	if p.maxIter <= 0 {
		p.maxIter = 50 + 10*f.Rows
	}
	nchunks := (f.Cols + bppChunk - 1) / bppChunk
	states = states[:max(1, min(len(states), pool.Workers(), nchunks))]
	for i := range states {
		states[i].stats, states[i].err = Stats{}, nil
	}
	if len(states) == 1 {
		for ci := 0; ci < nchunks; ci++ {
			states[0].solveChunk(&p, ci)
		}
	} else {
		claimChunks(states, pool, p, nchunks)
	}
	var st Stats
	var err error
	for i := range states {
		rounds := max(st.Iterations, states[i].stats.Iterations)
		st.Add(states[i].stats)
		st.Iterations = rounds
		err = worseErr(err, states[i].err)
	}
	return st, err
}

// claimChunks runs the chunks on the pool: one invocation per state,
// each taking the next unclaimed chunk until none is left, so uneven
// chunks (power-law columns) balance themselves. It is a function of
// its own, taking p by value, so the closure's captures stay off the
// serial path's heap.
func claimChunks(states []bppState, pool *par.Pool, p bppProblem, nchunks int) {
	var next atomic.Int64
	pool.For(len(states), 1, func(lo, hi int) {
		for slot := lo; slot < hi; slot++ {
			for ci := int(next.Add(1)) - 1; ci < nchunks; ci = int(next.Add(1)) - 1 {
				states[slot].solveChunk(&p, ci)
			}
		}
	})
}

// worseErr keeps the more severe of two chunk outcomes: any failure
// over none, a hard failure over ErrNotConverged.
func worseErr(a, b error) error {
	if a == nil || (b != nil && errors.Is(a, ErrNotConverged)) {
		return b
	}
	return a
}

// sized returns s with length n, reallocating only when a larger shape
// arrives.
func sized[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// view shapes d as an r×c matrix over its own backing array.
func view(d *mat.Dense, r, c int) *mat.Dense {
	d.Rows, d.Cols, d.Data = r, c, d.Data[:r*c]
	return d
}

// resize sizes the k-dependent scratch for a chunk of cw columns. When
// k grows the workspace is seeded with the two buffers SolveSPDInto
// can hold at once, so no later pattern allocates.
func (ps *bppState) resize(k, cw int) {
	n, kw := k*cw, (k+63)/64
	ps.nf, ps.z, ps.xp.Data = sized(ps.nf, n), sized(ps.z, n), sized(ps.xp.Data, n)
	ps.key, ps.bad, ps.pidx = sized(ps.key, cw*kw), sized(ps.bad, kw), sized(ps.pidx, k)
	if cap(ps.gpp.Data) < k*k {
		ps.gpp.Data, ps.gt.Data = make([]float64, k*k), make([]float64, k*k)
		ps.ws = mat.Workspace{}
		l, gj := ps.ws.Get(k+1, k), ps.ws.Get(k, k)
		ps.ws.Put(l)
		ps.ws.Put(gj)
	}
}

// allIf is all ones for true and zero for false, without a branch.
func allIf(b bool) uint64 {
	if b {
		return ^uint64(0)
	}
	return 0
}

// below packs the tests z[i] < t of up to 64 values into a word, bit i
// for z[i]: one compare per value and no branch on its outcome. Kept
// out of line: inlined into exchange its running bit spills to the
// stack and the loop waits on the reload.
//
//go:noinline
func below(z []float64, t float64) (m uint64) {
	bit := uint64(1)
	for _, v := range z {
		m |= bit & allIf(v < t)
		bit <<= 1
	}
	return m
}

// solveChunk pivots chunk ci (columns ci·bppChunk onward) to
// convergence and writes its columns of p.x, adding its work and
// outcome to the slot totals.
func (ps *bppState) solveChunk(p *bppProblem, ci int) {
	k, c0 := p.f.Rows, ci*bppChunk
	cols := ps.load(p, c0)
	cw, rounds := len(cols), 0
	for ; rounds < p.maxIter && len(cols) > 0; rounds++ {
		// Solve the passive systems and the duals, grouped by pattern.
		for gi, ng := 0, ps.group(cols, k, p.grouping); gi < ng; gi++ {
			if err := ps.solveGroup(p.g, k, ps.order[ps.start[gi]:ps.start[gi+1]]); err != nil {
				ps.err = worseErr(ps.err, err)
				return
			}
		}
		cols = ps.exchange(cols, k, p.tol, rounds == p.maxIter-1)
	}
	ps.stats.Iterations = max(ps.stats.Iterations, rounds)
	if len(cols) > 0 {
		ps.err = worseErr(ps.err, ErrNotConverged)
	}
	for i := 0; i < k; i++ {
		xrow := p.x.Row(i)[c0 : c0+cw]
		for c := range xrow {
			xrow[c] = ps.z[c*k+i]
		}
	}
}

// load copies the chunk starting at column c0 into the state — −F
// column-contiguous, Gᵀ, the passive sets from the signs of the warm
// start — and returns its columns, all unconverged.
func (ps *bppState) load(p *bppProblem, c0 int) []int {
	k, kw := p.f.Rows, (p.f.Rows+63)/64
	cw := min(bppChunk, p.f.Cols-c0)
	ps.resize(k, cw)
	clear(ps.key)
	p.g.TTo(view(&ps.gt, k, k))
	for i := 0; i < k; i++ {
		for c, v := range p.f.Row(i)[c0 : c0+cw] {
			ps.nf[c*k+i] = -v
		}
		if p.xInit != nil {
			key, bit := ps.key[i>>6:], uint64(1)<<(i&63)
			for c, v := range p.xInit.Row(i)[c0 : c0+cw] {
				key[c*kw] |= bit & allIf(v > 0)
			}
		}
	}
	cols := ps.cols[:cw]
	for c := range cols {
		cols[c], ps.alpha[c], ps.beta[c] = c, 3, k+1
	}
	return cols
}

// group buckets the round's columns by passive pattern: group gi is
// order[start[gi]:start[gi+1]], and the group count is returned.
// Without grouping every column is its own group. The buckets are
// rebuilt from scratch each round in fixed buffers (an open-addressing
// table over the packed patterns, then a counting sort), so nothing is
// kept per pattern.
func (ps *bppState) group(cols []int, k int, grouping bool) int {
	if !grouping {
		for i, c := range cols {
			ps.order[i], ps.start[i] = c, i
		}
		ps.start[len(cols)] = len(cols)
		return len(cols)
	}
	kw := (k + 63) / 64
	clear(ps.table[:])
	ng := 0
	for _, c := range cols {
		key := ps.key[c*kw : (c+1)*kw]
		var h uint64
		for _, w := range key {
			h = (h ^ w) * 0x9E3779B97F4A7C15
		}
		for slot := h >> (64 - bppTableBits); ; slot = (slot + 1) % uint64(len(ps.table)) {
			gi := int(ps.table[slot]) - 1
			if gi < 0 {
				gi = ng
				ng++
				ps.table[slot], ps.rep[gi], ps.count[gi] = int32(ng), c, 0
			}
			if r := ps.rep[gi]; slices.Equal(key, ps.key[r*kw:(r+1)*kw]) {
				ps.gid[c] = gi
				ps.count[gi]++
				break
			}
		}
	}
	for gi := 0; gi < ng; gi++ {
		ps.start[gi+1] = ps.start[gi] + ps.count[gi]
		ps.count[gi] = ps.start[gi]
	}
	for _, c := range cols {
		ps.order[ps.count[ps.gid[c]]] = c
		ps.count[ps.gid[c]]++
	}
	return ng
}

// solveGroup solves the unconstrained system restricted to the shared
// passive set P of the given columns (all of one pattern) and writes
// each column's z: x_P on P and the dual y_A = G[A,P]·x_P − f_A on the
// active set A. The dual is accumulated over all k variables at once —
// z = −f, then z += Gᵀ[l,:]·x_l for l in P ascending, the order in
// which a row-by-row sum adds its terms — because k is the one long
// axis a one-column group has; the entries on P are then overwritten
// with x_P. Stats.Flops charges the rows of A only.
func (ps *bppState) solveGroup(g *mat.Dense, k int, cols []int) error {
	kw, pp := (k+63)/64, 0
	for w, free := range ps.key[cols[0]*kw : (cols[0]+1)*kw] {
		for ; free != 0; free &= free - 1 {
			ps.pidx[pp] = w<<6 + bits.TrailingZeros64(free)
			pp++
		}
	}
	pidx, nc := ps.pidx[:pp], len(cols)
	xp := view(&ps.xp, pp, nc)
	if pp > 0 {
		// SolveSPDInto reads the lower triangle only and solves in place.
		gpp := view(&ps.gpp, pp, pp)
		for a, ia := range pidx {
			grow := g.Data[ia*k : (ia+1)*k]
			for b, ib := range pidx[:a+1] {
				gpp.Data[a*pp+b] = grow[ib]
			}
			for b, c := range cols {
				xp.Data[a*nc+b] = -ps.nf[c*k+ia]
			}
		}
		if err := mat.SolveSPDInto(xp, gpp, xp, &ps.ws); err != nil {
			return err
		}
	}
	xd, gt := xp.Data, ps.gt.Data
	for b, c := range cols {
		zc, a := ps.z[c*k:(c+1)*k], 0
		copy(zc, ps.nf[c*k:(c+1)*k])
		for ; a+4 <= pp; a += 4 { // four terms a call: the same sums, left to right
			l, o := pidx[a:a+4], a*nc+b
			v := [4]float64{xd[o], xd[o+nc], xd[o+2*nc], xd[o+3*nc]}
			mat.Axpy4(zc, gt[l[0]*k:][:k], gt[l[1]*k:][:k], gt[l[2]*k:][:k], gt[l[3]*k:][:k], &v)
		}
		for ; a < pp; a++ {
			mat.Axpy(zc, gt[pidx[a]*k:][:k], xd[a*nc+b])
		}
		for a, ia := range pidx {
			zc[ia] = xd[a*nc+b]
		}
	}
	ps.stats.Flops += int64(pp*pp*pp)/3 + int64(2*pp*pp*nc) + int64(2*(k-pp)*pp*nc)
	ps.stats.Groups++
	ps.stats.ColumnRounds += nc
	return nil
}

// exchange tests every column of the round for infeasible variables —
// z below −tol, one compare per variable whichever set it is in — and
// swaps them between the sets; it returns the columns still
// unconverged (in place, ascending). A column that is optimal, or out
// of rounds (last), has its z turned into its x: zero on the active
// set, tiny negatives from roundoff snapped to zero.
func (ps *bppState) exchange(cols []int, k int, tol float64, last bool) []int {
	kw, neg := (k+63)/64, -tol
	next, bad := cols[:0], ps.bad
	for _, c := range cols {
		zc, key := ps.z[c*k:(c+1)*k], ps.key[c*kw:(c+1)*kw]
		n := 0
		for w := range bad {
			bad[w] = below(zc[w<<6:min(k, w<<6+64)], neg)
			n += bits.OnesCount64(bad[w])
		}
		if n == 0 || last {
			// z becomes x: kept where the variable is free and not
			// negative, +0 elsewhere.
			for i, v := range zc {
				keep := -(key[i>>6] >> (i & 63) & 1) & allIf(!(v < 0))
				zc[i] = math.Float64frombits(math.Float64bits(v) & keep)
			}
		}
		if n == 0 {
			continue
		}
		next = append(next, c)
		switch {
		case n < ps.beta[c]:
			ps.beta[c], ps.alpha[c] = n, 3
		case ps.alpha[c] > 0:
			ps.alpha[c]--
		default:
			// Backup rule: flip only the infeasible variable with
			// the largest index — guarantees finite termination.
			w := kw - 1
			for bad[w] == 0 {
				w--
			}
			top := uint64(1) << (63 - bits.LeadingZeros64(bad[w]))
			clear(bad)
			bad[w] = top
		}
		for w, m := range bad {
			key[w] ^= m
		}
	}
	return next
}

// bppTolerance scales the zero test to the problem's magnitude.
func bppTolerance(g, f *mat.Dense) float64 {
	return 1e-12 * (1 + max(maxAbs(g.Data), maxAbs(f.Data)))
}

// maxAbs is the largest magnitude in v, NaNs ignored.
func maxAbs(v []float64) float64 {
	m := 0.0
	for _, x := range v {
		if a := math.Abs(x); a > m {
			m = a
		}
	}
	return m
}
