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
// Groups of up to four columns — nearly all of them on sparse inputs —
// are solved instead one column per lane, four independent systems at
// a time (see solveRound).
//
// Columns are independent, so the r columns are cut into chunks of
// bppChunk columns and each chunk is copied into column-contiguous
// scratch, pivoted to convergence on its own bppState and scattered
// back. Under SolveCtx the workers of ctx.Pool claim chunks from a
// shared counter (one bppState per worker slot, kept on the instance);
// with no pool the chunks run inline. A column's arithmetic depends
// only on G, its own right-hand side and its own passive pattern — the
// Cholesky of G[P,P] is the same whether a group or a lane computes it,
// and the substitution subtracts the same products from a column in
// the same order whether a lane runs down that column or a group's
// rows are updated across it (see mat.CholSolveInto) — so X is bitwise
// independent of the pool width, of which worker takes which chunk, of
// the chunk width, of the group width and of which columns share a
// quad of lanes. Stats (see its fields) sums Flops, Groups and
// ColumnRounds over the chunks, counted per group however the group
// was solved.
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

// laneP is the largest passive set a lane holds, and the row stride of
// the lanes' factor scratch; a group with more free variables is
// solved by solveGroup. A constant stride keeps every index into the
// scratch a shift and an add, so it is fixed, never an option; lanes
// beat one-column solves at every |P| measured, so the bound is the
// scratch's size (table in DESIGN, "A one-column group is a vector").
const laneP = 32

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
	// The round's lane columns waiting in the bucket of their |P|:
	// bucket[p][:queued[p]].
	bucket [laneP + 1][4]int
	queued [laneP + 1]int
	quad   lanes

	stats Stats
	err   error
}

// lanes is four one-column systems of one size side by side: the lower
// triangles of their G[P,P] (row stride laneP), factored in place, the
// reciprocals of the factors' diagonals, and the right-hand sides,
// solved in place (lane by lane, so a lane's solution is a vector for
// dual).
type lanes struct {
	l    [laneP * laneP]quad
	inv  [laneP]quad
	x    [4][laneP]float64
	pidx [4][laneP]int
}

// quad is one entry of the four systems, lane i in field i. Four
// fields and not a [4]float64: Go keeps a struct this small in
// registers and an array in memory, and four independent chains in
// registers are the point — they hide one another's √ → 1/x →
// multiply latency.
type quad struct{ a, b, c, d float64 }

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
		if err := ps.solveRound(p.g, k, cols, p.grouping); err != nil {
			ps.err = worseErr(ps.err, err)
			return
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

// solveRound solves the passive systems of one round, grouped by
// pattern, and writes every column's z. A group of one to four columns
// with 1 ≤ |P| ≤ laneP is queued column by column into the bucket of
// its |P|, and a bucket is solved as one quad the moment it holds four;
// any other group is solved whole by solveGroup, and the buckets left
// partly filled are flushed at the end of the round. A column's bits
// do not depend on the path it takes or on its quad (see solveQuad).
// Stats are charged per group either way.
func (ps *bppState) solveRound(g *mat.Dense, k int, cols []int, grouping bool) error {
	kw := (k + 63) / 64
	clear(ps.queued[:])
	for gi, ng := 0, ps.group(cols, k, grouping); gi < ng; gi++ {
		gc := ps.order[ps.start[gi]:ps.start[gi+1]]
		pp, nc := 0, len(gc)
		for _, w := range ps.key[gc[0]*kw : (gc[0]+1)*kw] {
			pp += bits.OnesCount64(w)
		}
		ps.stats.Flops += int64(pp*pp*pp)/3 + int64(2*pp*pp*nc) + int64(2*(k-pp)*pp*nc)
		ps.stats.Groups++
		ps.stats.ColumnRounds += nc
		if pp == 0 || pp > laneP || nc > 4 {
			if err := ps.solveGroup(g, k, gc); err != nil {
				return err
			}
			continue
		}
		for _, c := range gc {
			b, n := &ps.bucket[pp], ps.queued[pp]
			b[n], ps.queued[pp] = c, (n+1)%4
			if n == 3 {
				if err := ps.solveLanes(g, k, pp, b[:]); err != nil {
					return err
				}
			}
		}
	}
	for pp, n := range ps.queued {
		if err := ps.solveLanes(g, k, pp, ps.bucket[pp][:n]); err != nil {
			return err
		}
	}
	return nil
}

// solveLanes solves cols, up to four columns with |P| = n, as the
// lanes of one quad. A lone column is solved by solveGroup instead —
// four lanes cost more than one column's vector solve once |P| passes
// ≈ 12 — and so are the columns of a quad some lane of which meets a
// pivot that is not positive, SolveSPDInto's jitter being solveGroup's.
func (ps *bppState) solveLanes(g *mat.Dense, k, n int, cols []int) error {
	if len(cols) > 1 && ps.solveQuad(g, k, n, cols) {
		return nil
	}
	for i := range cols {
		if err := ps.solveGroup(g, k, cols[i:i+1]); err != nil {
			return err
		}
	}
	return nil
}

// listP writes the passive set of column c, ascending, into pidx and
// returns it.
func (ps *bppState) listP(c, kw int, pidx []int) []int {
	pp := 0
	for w, free := range ps.key[c*kw : (c+1)*kw] {
		for ; free != 0; free &= free - 1 {
			pidx[pp] = w<<6 + bits.TrailingZeros64(free)
			pp++
		}
	}
	return pidx[:pp]
}

// solveGroup solves the unconstrained system restricted to the shared
// passive set P of the given columns (all of one pattern) off one
// factorization of G[P,P], and writes each column's z (see dual).
func (ps *bppState) solveGroup(g *mat.Dense, k int, cols []int) error {
	pidx, nc := ps.listP(cols[0], (k+63)/64, ps.pidx), len(cols)
	pp := len(pidx)
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
	for b, c := range cols {
		ps.dual(k, c, pidx, xp.Data, b, nc)
	}
	return nil
}

// solveQuad solves the one-column systems of cols (two to four
// columns, all with |P| = n) as the lanes of one quad — a lane past the
// last column repeats it — and writes each column's z (see dual). It
// reports false, having written no z, when some lane meets a pivot
// that is not positive. Each lane goes through exactly the operations
// of a one-column solveGroup in the same order — the factorization of
// mat.CholeskyInto and the substitution of mat.CholSolveInto down a
// vector, zero skips included — so its bits are the ones solveGroup
// would give.
func (ps *bppState) solveQuad(g *mat.Dense, k, n int, cols []int) bool {
	q, kw := &ps.quad, (k+63)/64
	var c [4]int
	for ln := range c {
		c[ln] = cols[min(ln, len(cols)-1)]
		for a, ia := range ps.listP(c[ln], kw, q.pidx[ln][:]) {
			q.x[ln][a] = -ps.nf[c[ln]*k+ia]
		}
	}
	p0, p1, p2, p3 := q.pidx[0][:n], q.pidx[1][:n], q.pidx[2][:n], q.pidx[3][:n]
	for a := range p0 {
		g0, g1, g2, g3 := g.Data[p0[a]*k:][:k], g.Data[p1[a]*k:][:k], g.Data[p2[a]*k:][:k], g.Data[p3[a]*k:][:k]
		for b, row := 0, q.l[a*laneP:a*laneP+a+1]; b < len(row); b++ {
			row[b] = quad{g0[p0[b]], g1[p1[b]], g2[p2[b]], g3[p3[b]]}
		}
	}
	if !q.solve(n) {
		return false
	}
	for ln, cl := range cols {
		ps.dual(k, cl, q.pidx[ln][:n], q.x[ln][:], 0, 1)
	}
	return true
}

// solve factors the quad's n×n systems and solves them in place,
// reporting false, with the quad half done, when some lane's pivot is
// not positive.
func (q *lanes) solve(n int) bool {
	l := &q.l
	for j := 0; j < n; j++ {
		lj := l[j*laneP : j*laneP+j+1]
		d := lj[j]
		for _, v := range lj[:j] {
			d = d.fms(v, v)
		}
		if !(d.a > 0 && d.b > 0 && d.c > 0 && d.d > 0) { // d ≤ 0 or NaN in some lane
			return false
		}
		s := quad{math.Sqrt(d.a), math.Sqrt(d.b), math.Sqrt(d.c), math.Sqrt(d.d)}
		r := quad{1 / s.a, 1 / s.b, 1 / s.c, 1 / s.d}
		lj[j], q.inv[j] = s, r
		for i := j + 1; i < n; i++ {
			li := l[i*laneP : i*laneP+j+1]
			s := li[j]
			for t, u := range li[:j] {
				s = s.fms(u, lj[t])
			}
			li[j] = s.mul(r)
		}
	}
	for i := 0; i < n; i++ { // L·y = b: row i of L, ascending
		q.setX(i, q.minus(q.xAt(i), 0, i, i*laneP, 1).mul(q.inv[i]))
	}
	for i := n - 1; i >= 0; i-- { // Lᵀ·x = y: column i of L, ascending
		q.setX(i, q.minus(q.xAt(i), i+1, n, i, laneP).mul(q.inv[i]))
	}
	return true
}

// xAt and setX read and write entry i of the four right-hand sides.
func (q *lanes) xAt(i int) quad { return quad{q.x[0][i], q.x[1][i], q.x[2][i], q.x[3][i]} }

func (q *lanes) setX(i int, v quad) { q.x[0][i], q.x[1][i], q.x[2][i], q.x[3][i] = v.a, v.b, v.c, v.d }

// fms is v − c·x per lane, unfused like mat.CholeskyInto's loop.
func (v quad) fms(c, x quad) quad {
	return quad{v.a - float64(c.a*x.a), v.b - float64(c.b*x.b), v.c - float64(c.c*x.c), v.d - float64(c.d*x.d)}
}

// minus is v − Σ c_t·x_t over t in [lo, hi), c_t = l[ci + t·cs]: the
// substitution of mat.CholSolveInto for one entry of every lane,
// products subtracted in ascending t and a zero c_t skipped. Each
// lane's operands are loaded next to its own skip: without GOAMD64=v3,
// math.FMA is a feature test with a call behind it, and every value
// live across that call is spilled on each pass.
func (q *lanes) minus(v quad, lo, hi, ci, cs int) quad {
	for t := lo; t < hi; t++ {
		c := &q.l[ci+t*cs]
		v.a = skip(v.a, c.a, q.x[0][t])
		v.b = skip(v.b, c.b, q.x[1][t])
		v.c = skip(v.c, c.c, q.x[2][t])
		v.d = skip(v.d, c.d, q.x[3][t])
	}
	return v
}

// skip is v + (−c)·x fused, as mat.CholSolveInto's substitution
// rounds it, or v when c is zero.
func skip(v, c, x float64) float64 {
	if c != 0 {
		return math.FMA(-c, x, v)
	}
	return v
}

// mul is v·r per lane.
func (v quad) mul(r quad) quad { return quad{v.a * r.a, v.b * r.b, v.c * r.c, v.d * r.d} }

// dual writes column c's z from its solution on P — x_l = xv[o+a·stride]
// for the a-th entry l of pidx — as x_P on P and the dual
// y_A = G[A,P]·x_P − f_A on the active set A. The dual is accumulated
// over all k variables at once — z = −f, then z += Gᵀ[l,:]·x_l for l in
// P ascending, the order in which a row-by-row sum adds its terms —
// because k is the one long axis a one-column system has; the entries
// on P are then overwritten with x_P. (Stats.Flops charges the rows of
// A only.)
func (ps *bppState) dual(k, c int, pidx []int, xv []float64, o, stride int) {
	zc, gt, a := ps.z[c*k:(c+1)*k], ps.gt.Data, 0
	copy(zc, ps.nf[c*k:(c+1)*k])
	for ; a+4 <= len(pidx); a += 4 { // four terms a call: the same sums, left to right
		l, i := pidx[a:a+4], o+a*stride
		v := [4]float64{xv[i], xv[i+stride], xv[i+2*stride], xv[i+3*stride]}
		mat.Axpy4(zc, gt[l[0]*k:][:k], gt[l[1]*k:][:k], gt[l[2]*k:][:k], gt[l[3]*k:][:k], &v)
	}
	for ; a < len(pidx); a++ {
		mat.Axpy(zc, gt[pidx[a]*k:][:k], xv[o+a*stride])
	}
	for a, ia := range pidx {
		zc[ia] = xv[o+a*stride]
	}
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
