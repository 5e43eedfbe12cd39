package nnls

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"testing"

	"hpcnmf/internal/mat"
	"hpcnmf/internal/par"
	"hpcnmf/internal/rng"
	"hpcnmf/internal/sparse"
)

// The column-chunked core's contract: X and Stats do not depend on the
// pool width, on which worker takes which chunk, or on where the chunk
// boundaries fall. The boundary half is pinned against refBPP, an
// unchunked oracle with loops of its own.

// refBPP is Kim–Park pivoting one column at a time, start to finish,
// under the tolerance of the whole problem: no chunks, no groups, no
// lanes, no shared scratch, a []bool per passive set. It shares only
// mat.SolveSPDInto with the solver, and not the same path through it:
// every system here is pp × 1, factored alone and substituted down its
// one column as a vector, while the solver factors four columns'
// systems at once in the lanes of a quad and substitutes a wide group
// across its rows by Axpy — so agreement in every bit checks those
// forms against this one, not one against itself. It returns the
// largest round count over the columns and ErrNotConverged when some
// column ran out of rounds (its iterate clamped).
func refBPP(g, f, xInit *mat.Dense, maxIter int) (*mat.Dense, int, error) {
	return refBPPTrace(g, f, xInit, maxIter, nil)
}

// refBPPTrace is refBPP reporting every column's passive set to rec
// (when non-nil): the starting one, then the one each exchanging round
// leaves, and whether that round fell back to the backup rule.
func refBPPTrace(g, f, xInit *mat.Dense, maxIter int, rec func(c int, passive []bool, backup bool)) (*mat.Dense, int, error) {
	k, r := f.Rows, f.Cols
	if maxIter == 0 {
		maxIter = 50 + 10*k
	}
	tol := bppTolerance(g, f)
	x := mat.NewDense(k, r)
	rounds := 0
	var err error
	for c := 0; c < r; c++ {
		passive := make([]bool, k)
		for i := range passive {
			passive[i] = xInit != nil && xInit.At(i, c) > 0
		}
		if rec != nil {
			rec(c, passive, false)
		}
		xc := make([]float64, k)
		alpha, beta, done, n := 3, k+1, false, 0
		for ; n < maxIter && !done; n++ {
			var pidx, bad []int
			for i, free := range passive {
				if free {
					pidx = append(pidx, i)
				}
			}
			clear(xc)
			if pp := len(pidx); pp > 0 {
				gpp, rhs := mat.NewDense(pp, pp), mat.NewDense(pp, 1)
				for a, ia := range pidx {
					for b, ib := range pidx {
						gpp.Set(a, b, g.At(ia, ib))
					}
					rhs.Set(a, 0, f.At(ia, c))
				}
				if e := mat.SolveSPDInto(rhs, gpp, rhs, nil); e != nil {
					return nil, 0, e
				}
				for a, ia := range pidx {
					xc[ia] = rhs.At(a, 0)
				}
			}
			for i := 0; i < k; i++ {
				v := xc[i]
				if !passive[i] {
					v = -f.At(i, c)
					for _, l := range pidx {
						v += g.At(i, l) * xc[l]
					}
				}
				if v < -tol {
					bad = append(bad, i)
				}
			}
			backup := false
			switch {
			case len(bad) == 0:
				done = true
				continue
			case len(bad) < beta:
				beta, alpha = len(bad), 3
			case alpha > 0:
				alpha--
			default:
				bad, backup = bad[len(bad)-1:], true
			}
			for _, i := range bad {
				passive[i] = !passive[i]
			}
			if rec != nil {
				rec(c, passive, backup)
			}
		}
		rounds = max(rounds, n)
		if !done {
			err = ErrNotConverged
		}
		for i, v := range xc {
			if v < 0 {
				v = 0
			}
			x.Set(i, c, v)
		}
	}
	return x, rounds, err
}

// sameBits fails unless a and b agree in every bit of every entry.
func sameBits(t *testing.T, what string, want, got *mat.Dense) {
	t.Helper()
	for i := range want.Data {
		if math.Float64bits(want.Data[i]) != math.Float64bits(got.Data[i]) {
			t.Fatalf("%s: entry (%d,%d) is %v, want %v", what, i/want.Cols, i%want.Cols, got.Data[i], want.Data[i])
		}
	}
}

type bppCase struct {
	name        string
	g, f, xInit *mat.Dense
}

// chunkCases builds the six kinds of problem the chunk tests run on.
func chunkCases(k, r int, seed uint64) []bppCase {
	g, f := randomSPD(k, seed), randomRHS(k, r, seed+1)
	warm := randomRHS(k, r, seed+2)
	warm.ClampNonneg()

	// Singular Gram: C has a duplicated column and an all-zero one. The
	// all-positive warm start makes the zero-diagonal variable passive
	// in round one, so the plain Cholesky fails and the jittered
	// factorization is what every column goes through.
	s := rng.New(seed + 3)
	c := mat.NewDense(k+3, k)
	c.RandomUniform(s)
	for i := 0; i < c.Rows; i++ {
		c.Set(i, k-1, c.At(i, 0))
		c.Set(i, k/2, 0)
	}
	b := mat.NewDense(k+3, r)
	for i := range b.Data {
		b.Data[i] = 2*s.Float64() - 0.5
	}
	ones := mat.NewDense(k, r)
	ones.Fill(1)
	fc := mat.NewDense(k, r)
	mat.ParMulAtBTo(fc, c, b, nil)

	// Every seventh column all zero, chunk-boundary columns included.
	fz := f.Clone()
	for c := 0; c < r; c++ {
		if c%7 == 0 || c%bppChunk == 0 || c%bppChunk == bppChunk-1 {
			for i := 0; i < k; i++ {
				fz.Set(i, c, 0)
			}
		}
	}
	// Every fifth column all −0.0: with every variable free the solve
	// returns −0.0, which is feasible and is not snapped.
	fn := f.Clone()
	for c := 0; c < r; c += 5 {
		for i := 0; i < k; i++ {
			fn.Set(i, c, math.Copysign(0, -1))
		}
	}
	return []bppCase{
		{"cold", g, f, nil},
		{"warm", g, f, warm},
		{"singular", gram(c), fc, ones},
		{"zerocols", g, fz, warm},
		{"allpassive", g, f, ones},
		{"negzerocols", g, fn, ones},
	}
}

// powerLawCases builds problems the way an NMF of a power-law sparse
// matrix poses them: G = WᵀW and F = WᵀA for a random nonnegative W,
// cold and warm-started. Columns of A hold from one to hundreds of
// entries, so a round's one-column groups spread over many |P| and
// fill whole quads in several buckets at once.
func powerLawCases(k, r int, seed uint64) []bppCase {
	a := sparse.RandomPowerLaw(r, 3, rng.New(seed)).ToDense()
	w := mat.NewDense(r, k)
	w.RandomUniform(rng.New(seed + 1))
	warm := randomRHS(k, r, seed+2)
	warm.ClampNonneg()
	g, f := gram(w), mat.NewDense(k, r)
	mat.ParMulAtBTo(f, w, a, nil)
	return []bppCase{{"powerlaw", g, f, nil}, {"powerlawwarm", g, f, warm}}
}

// laneCases builds problems whose first round hands the lanes exactly
// what their names say (k ≥ 6, r ≤ (k−2)(k−3)/2): "distinct"
// warm-starts every column with a passive set of its own, all of size
// 3, so the round is whole quads and a last one of r mod 4 columns;
// "onesingular" also decouples variable k−1 with a zero diagonal and
// puts it in every fourth column's passive set, so every whole quad
// holds exactly one lane that only the jitter can factor; "signedzero"
// has the factor's exact zero L[1][0] meet f_1 = −0.0 and a negative
// y_0, so x_1 keeps its sign only if the lanes skip that product as
// the vector substitution does (grouping off puts its columns in
// lanes).
func laneCases(k, r int, seed uint64) []bppCase {
	g, f := randomSPD(k, seed), randomRHS(k, r, seed+1)
	gs := g.Clone()
	for i := 0; i < k; i++ {
		gs.Set(i, k-1, 0)
		gs.Set(k-1, i, 0)
	}
	distinct, single := mat.NewDense(k, r), mat.NewDense(k, r)
	c := 0
	for i := 0; i < k-2 && c < r; i++ {
		for j := i + 1; j < k-2 && c < r; j, c = j+1, c+1 {
			for _, x := range []*mat.Dense{distinct, single} {
				x.Set(i, c, 1)
				x.Set(j, c, 1)
			}
			distinct.Set(k-2, c, 1)
			single.Set(k-2+c%4/3, c, 1) // k−1 in columns 3, 7, …
		}
	}
	// x = (0.53…, −0, 1.26…) on P = {0, 1, 2}, every other variable
	// pinned at zero by f = −1.
	gz, fz, pz := mat.NewDense(k, k), mat.NewDense(k, r), mat.NewDense(k, r)
	gz.Fill(0)
	for i := 0; i < k; i++ {
		gz.Set(i, i, 1)
	}
	gz.Set(0, 2, -0.5)
	gz.Set(2, 0, -0.5)
	fz.Fill(-1)
	for c := 0; c < r; c++ {
		fz.Set(0, c, -0.1)
		fz.Set(1, c, math.Copysign(0, -1))
		fz.Set(2, c, 1+float64(c)/64)
		for i := 0; i < 3; i++ {
			pz.Set(i, c, 1)
		}
	}
	return []bppCase{{"distinct", g, f, distinct}, {"onesingular", gs, f, single}, {"signedzero", gz, fz, pz}}
}

// laneQuads pivots tc chunk by chunk the way solveChunk does and
// reports what its rounds handed the lanes: the largest |P| of a quad,
// the most buckets one round filled whole quads in, which counts a
// round left in a bucket (tails[1..3]), and whether some whole quad
// held exactly one lane whose G[P,P] has no plain Cholesky factor.
func laneQuads(t *testing.T, tc bppCase, grouping bool) (top, filled int, tails [4]bool, oneSingular bool) {
	t.Helper()
	k, r := tc.f.Rows, tc.f.Cols
	kw := (k + 63) / 64
	p := bppProblem{g: tc.g, f: tc.f, xInit: tc.xInit, x: mat.NewDense(k, r), tol: bppTolerance(tc.g, tc.f), maxIter: 50 + 10*k, grouping: grouping}
	var ps bppState
	for c0 := 0; c0 < r; c0 += bppChunk {
		cols := ps.load(&p, c0)
		for rounds := 0; len(cols) > 0; rounds++ {
			if rounds == p.maxIter {
				t.Fatalf("%s: chunk at column %d did not converge", tc.name, c0)
			}
			buckets := map[int][][]int{} // |P| → each queued column's P, in queue order
			for gi, ng := 0, ps.group(cols, k, grouping); gi < ng; gi++ {
				gc := ps.order[ps.start[gi]:ps.start[gi+1]]
				if pidx := ps.listP(gc[0], kw, make([]int, k)); len(pidx) >= 1 && len(pidx) <= laneP && len(gc) <= 4 {
					for range gc {
						buckets[len(pidx)] = append(buckets[len(pidx)], pidx)
					}
				}
			}
			whole := 0
			for n, queued := range buckets {
				if len(queued) >= 2 {
					top = max(top, n)
				}
				if len(queued) >= 4 {
					whole++
				}
				tails[len(queued)%4] = true
				for i := 0; i+4 <= len(queued); i += 4 {
					singular := 0
					for _, pidx := range queued[i : i+4] {
						gpp := mat.NewDense(n, n)
						for a, ia := range pidx {
							for b, ib := range pidx {
								gpp.Set(a, b, tc.g.At(ia, ib))
							}
						}
						if mat.CholeskyInto(mat.NewDense(n, n), gpp, make([]float64, n)) != nil {
							singular++
						}
					}
					oneSingular = oneSingular || singular == 1
				}
			}
			filled = max(filled, whole)
			if err := ps.solveRound(p.g, k, cols, grouping); err != nil {
				t.Fatal(err)
			}
			cols = ps.exchange(cols, k, p.tol, false)
		}
	}
	return top, filled, tails, oneSingular
}

// TestBPPWidthAndChunkIndependence: SolveCtx at pool widths 1, 2 and 3
// equals the stateless Solve bit for bit, with identical Stats, and
// both equal the unchunked oracle — on random, warm-started, singular,
// zero-column, all-passive and −0.0-column problems, with r one short
// of a chunk, exactly one, one over, and several with a ragged tail,
// and with k on either side of every word boundary of the pattern —
// and on the problems aimed at the four-lane solve: power-law columns
// whose rounds fill whole quads in many buckets of |P| at once, |P| at
// the lane bound and one over it, a quad with one lane that needs the
// jitter, and rounds that leave one, two and three columns in a
// bucket. The test fails if those problems stop reaching what they aim
// at.
func TestBPPWidthAndChunkIndependence(t *testing.T) {
	pools := []*par.Pool{nil, par.NewPool(2), par.NewPool(3)}
	defer pools[1].Close()
	defer pools[2].Close()
	shapes := []struct {
		k, r  int
		cases func(k, r int, seed uint64) []bppCase
	}{
		{9, bppChunk - 1, chunkCases}, {9, bppChunk, chunkCases}, {9, bppChunk + 1, chunkCases}, {9, 3*bppChunk + 17, chunkCases},
		{70, bppChunk + 1, chunkCases}, // k > 64: two words per packed pattern
		// The word boundaries of the packed pattern, and three words.
		{1, bppChunk + 1, chunkCases}, {63, 30, chunkCases}, {64, 30, chunkCases}, {65, 30, chunkCases}, {128, 20, chunkCases}, {130, 20, chunkCases},
		// The lanes. Ungrouped, the all-passive problems put |P| = k in
		// one-column groups: at the lane bound, and one over it.
		{20, 2*bppChunk + 30, powerLawCases},
		{laneP, 40, chunkCases}, {laneP + 1, 40, chunkCases},
		{9, 12, laneCases}, {9, 13, laneCases}, {9, 14, laneCases}, {9, 15, laneCases},
	}
	var top, filled int
	var oneSingular bool
	var tails [4]bool
	for _, sh := range shapes {
		for _, tc := range sh.cases(sh.k, sh.r, uint64(sh.k*sh.r)) {
			name := fmt.Sprintf("%s/k%d/r%d", tc.name, sh.k, sh.r)
			want, wst, err := solve(NewBPP(), tc.g, tc.f, tc.xInit)
			if err != nil {
				t.Fatalf("%s: Solve: %v", name, err)
			}
			ref, rounds, err := refBPP(tc.g, tc.f, tc.xInit, 0)
			if err != nil {
				t.Fatalf("%s: oracle: %v", name, err)
			}
			sameBits(t, name+": Solve vs unchunked oracle", ref, want)
			if wst.Iterations != rounds {
				t.Errorf("%s: Stats.Iterations = %d, oracle's slowest column took %d rounds", name, wst.Iterations, rounds)
			}
			for _, grouping := range []bool{true, false} {
				s := &BPP{Grouping: grouping} // one instance across widths: slot states are reused
				for _, pool := range pools {
					dst := mat.NewDense(sh.k, sh.r)
					dst.Fill(-7) // a dirty destination must not leak through
					st, err := s.SolveCtx(&Context{Pool: pool}, tc.g, tc.f, tc.xInit, dst)
					if err != nil {
						t.Fatalf("%s: SolveCtx width %d: %v", name, pool.Workers(), err)
					}
					sameBits(t, fmt.Sprintf("%s: SolveCtx width %d grouping %v", name, pool.Workers(), grouping), want, dst)
					if grouping && st != wst {
						t.Errorf("%s: Stats at width %d = %+v, Solve's = %+v", name, pool.Workers(), st, wst)
					}
				}
				qt, qf, qtails, qs := laneQuads(t, tc, grouping)
				if qt > laneP {
					t.Fatalf("%s: a quad held |P| = %d, over the lane bound %d", name, qt, laneP)
				}
				top, filled, oneSingular = max(top, qt), max(filled, qf), oneSingular || qs
				for i, hit := range qtails {
					tails[i] = tails[i] || hit
				}
			}
		}
	}
	if top != laneP || filled < 10 || !oneSingular || !tails[1] || !tails[2] || !tails[3] {
		t.Errorf("the lane problems no longer reach what they aim at: largest |P| in a quad %d (want %d), most buckets filled in a round %d (want ≥ 10), a quad with one singular lane %v, buckets left with 1/2/3 columns %v",
			top, laneP, filled, oneSingular, tails[1:])
	}
}

// pivotTrace runs the solver's own rounds on one bppState the way
// solveChunk does — load, then group, solveGroup and exchange until no
// column is left — and returns, per column, its packed passive set at
// the start and after every round of its chunk.
func pivotTrace(t *testing.T, tc bppCase) [][][]uint64 {
	t.Helper()
	k, r := tc.f.Rows, tc.f.Cols
	kw := (k + 63) / 64
	p := bppProblem{g: tc.g, f: tc.f, xInit: tc.xInit, x: mat.NewDense(k, r), tol: bppTolerance(tc.g, tc.f), maxIter: 50 + 10*k, grouping: true}
	trace := make([][][]uint64, r)
	var ps bppState
	for c0 := 0; c0 < r; c0 += bppChunk {
		cols := ps.load(&p, c0)
		cw := len(cols)
		snapshot := func() {
			for c := 0; c < cw; c++ {
				trace[c0+c] = append(trace[c0+c], append([]uint64(nil), ps.key[c*kw:(c+1)*kw]...))
			}
		}
		snapshot()
		for rounds := 0; len(cols) > 0; rounds++ {
			if rounds == p.maxIter {
				t.Fatalf("chunk at column %d did not converge", c0)
			}
			for gi, ng := 0, ps.group(cols, k, true); gi < ng; gi++ {
				if err := ps.solveGroup(p.g, k, ps.order[ps.start[gi]:ps.start[gi+1]]); err != nil {
					t.Fatal(err)
				}
			}
			cols = ps.exchange(cols, k, p.tol, false)
			snapshot()
		}
	}
	return trace
}

// embed copies tc's variables to the given offsets of a problem with
// 64 more: the copies are decoupled from each other, and every other
// variable is decoupled from all (identity Gram block) and stays at
// zero for good (f = −1) — the same pivoting at other bit positions of
// the packed pattern, and in two words at once.
func embed(tc bppCase, offsets ...int) bppCase {
	k, r := tc.f.Rows, tc.f.Cols
	kk := k + 64
	out := bppCase{name: fmt.Sprint(tc.name, offsets), g: mat.NewDense(kk, kk), f: mat.NewDense(kk, r)}
	out.f.Fill(-1)
	if tc.xInit != nil {
		out.xInit = mat.NewDense(kk, r)
	}
	for i := 0; i < kk; i++ {
		out.g.Set(i, i, 1)
	}
	for _, o := range offsets {
		for i := 0; i < k; i++ {
			copy(out.g.Row(o + i)[o:], tc.g.Row(i))
			copy(out.f.Row(o+i), tc.f.Row(i))
			if tc.xInit != nil {
				copy(out.xInit.Row(o+i), tc.xInit.Row(i))
			}
		}
	}
	return out
}

// TestBPPPivotSequenceUnchanged: not only the solution but the road to
// it is the oracle's — every column passes through the same passive
// sets in the same rounds as under refBPP's []bool bookkeeping (full
// exchanges, the α/β budget, the backup rule's largest index), and
// holds its last one once converged while the rest of its chunk goes
// on. The seeded shapes are ones where some column cycles into the
// backup rule (found by search; the test fails if they stop doing so);
// embedded among 64 idle variables they take the rule's largest index
// from the second word of the pattern, from the first with the second
// empty, and — two copies cycling in step — from the second with the
// first not empty.
func TestBPPPivotSequenceUnchanged(t *testing.T) {
	shapes := []struct {
		k, r int
		seed uint64
	}{{9, bppChunk + 30, 1}, {70, 60, 2}, {130, 20, 3}, {10, 40, 1438}, {10, 40, 1591}, {8, 40, 4394}}
	backups := map[string]int{}
	for _, sh := range shapes {
		for _, base := range chunkCases(sh.k, sh.r, sh.seed) {
			cases := []bppCase{base}
			if sh.k <= 10 {
				cases = append(cases, embed(base, 64), embed(base, 0), embed(base, 0, 64))
			}
			for _, tc := range cases {
				k, variant := tc.f.Rows, tc.name[len(base.name):]
				want := make([][][]uint64, sh.r)
				if _, _, err := refBPPTrace(tc.g, tc.f, tc.xInit, 0, func(c int, passive []bool, backup bool) {
					key := make([]uint64, (k+63)/64)
					for i, free := range passive {
						if free {
							key[i/64] |= 1 << (i % 64)
						}
					}
					want[c] = append(want[c], key)
					if backup {
						backups[base.name]++
						backups[variant]++
					}
				}); err != nil {
					t.Fatalf("%s/k%d: oracle: %v", tc.name, k, err)
				}
				for c, got := range pivotTrace(t, tc) {
					if len(got) < len(want[c]) {
						t.Fatalf("%s/k%d: column %d stopped after %d rounds, the oracle's exchanges %d times", tc.name, k, c, len(got)-1, len(want[c])-1)
					}
					for n, key := range got {
						if w := want[c][min(n, len(want[c])-1)]; !slices.Equal(key, w) {
							t.Fatalf("%s/k%d: column %d after round %d has passive set %x, the oracle's is %x", tc.name, k, c, n, key, w)
						}
					}
				}
			}
		}
	}
	for _, name := range []string{"cold", "warm", "singular", "zerocols", "allpassive", "negzerocols", "", "[64]", "[0]", "[0 64]"} {
		if backups[name] == 0 {
			t.Errorf("no %q problem reached the backup rule; the seeded shapes no longer pin it", name)
		}
	}
}

// TestBPPUnconvergedChunkDoesNotStopOthers: with a round budget that
// only the last chunk exceeds, that chunk's columns come back clamped,
// every other chunk's columns are the converged solution, and the
// solve reports ErrNotConverged — at every width, bit for bit what the
// unchunked oracle gives under the same budget.
func TestBPPUnconvergedChunkDoesNotStopOthers(t *testing.T) {
	const k, r = 9, 2*bppChunk + 10
	g, f := randomSPD(k, 61), randomRHS(k, r, 62)
	for c := 0; c < 2*bppChunk; c++ { // f ≤ 0: x = 0 is optimal at the first test
		for i := 0; i < k; i++ {
			f.Set(i, c, -math.Abs(f.At(i, c)))
		}
	}
	// The hard columns start with every variable free, so what they
	// hold after one round is the clamped unconstrained solution.
	warm := mat.NewDense(k, r)
	for i := 0; i < k; i++ {
		for c := 2 * bppChunk; c < r; c++ {
			warm.Set(i, c, 1)
		}
	}
	full, _, err := solve(NewBPP(), g, f, warm)
	if err != nil {
		t.Fatal(err)
	}
	ref, _, rerr := refBPP(g, f, warm, 1)
	if !errors.Is(rerr, ErrNotConverged) {
		t.Fatalf("oracle under MaxIter=1: err = %v; the hard columns converged in one round", rerr)
	}
	pool := par.NewPool(3)
	defer pool.Close()
	for _, p := range []*par.Pool{nil, pool} {
		dst := mat.NewDense(k, r)
		dst.Fill(-7)
		st, err := (&BPP{MaxIter: 1, Grouping: true}).SolveCtx(&Context{Pool: p}, g, f, warm, dst)
		if !errors.Is(err, ErrNotConverged) {
			t.Fatalf("width %d: err = %v, want ErrNotConverged", p.Workers(), err)
		}
		if st.Iterations != 1 {
			t.Errorf("width %d: %d rounds recorded, want 1", p.Workers(), st.Iterations)
		}
		sameBits(t, "exhausted solve vs oracle", ref, dst)
		for c := 0; c < r; c++ {
			for i := 0; i < k; i++ {
				v := dst.At(i, c)
				if c < 2*bppChunk && v != full.At(i, c) {
					t.Fatalf("width %d: converged column %d differs from the full solve", p.Workers(), c)
				}
				if v < 0 || math.IsNaN(v) {
					t.Fatalf("width %d: x[%d,%d] = %v after clamping", p.Workers(), i, c, v)
				}
			}
		}
	}
}

// TestBPPHardErrorWinsOverNotConverged: one chunk runs out of rounds,
// another meets a Gram block no jitter can factor; the solve reports
// the factorization failure whichever chunk comes first and whatever
// the width.
func TestBPPHardErrorWinsOverNotConverged(t *testing.T) {
	const k, r, j = 9, 2 * bppChunk, 4
	// Variable j is decoupled and its diagonal is NaN: a column whose
	// f_j > 0 makes j passive in round two and cannot be factored; a
	// column with f_j < 0 never touches it.
	g := randomSPD(k, 71)
	for i := 0; i < k; i++ {
		g.Set(i, j, 0)
		g.Set(j, i, 0)
	}
	g.Set(j, j, math.NaN())
	pool := par.NewPool(3)
	defer pool.Close()
	for _, poisoned := range []int{0, 1} {
		f := randomRHS(k, r, 72)
		for c := 0; c < r; c++ {
			f.Set(j, c, -1)
		}
		f.Set(j, poisoned*bppChunk+3, 1)
		// The clean chunk alone needs more than two rounds.
		lo := (1 - poisoned) * bppChunk
		clean := mat.NewDense(k, bppChunk)
		for i := 0; i < k; i++ {
			copy(clean.Row(i), f.Row(i)[lo:lo+bppChunk])
		}
		if _, _, err := solve(&BPP{MaxIter: 2, Grouping: true}, g, clean, nil); !errors.Is(err, ErrNotConverged) {
			t.Fatalf("clean chunk under MaxIter=2: err = %v, want ErrNotConverged", err)
		}
		for _, p := range []*par.Pool{nil, pool} {
			_, err := (&BPP{MaxIter: 2, Grouping: true}).SolveCtx(&Context{Pool: p}, g, f, nil, mat.NewDense(k, r))
			if !errors.Is(err, mat.ErrNotPositiveDefinite) {
				t.Errorf("poisoned chunk %d, width %d: err = %v, want ErrNotPositiveDefinite", poisoned, p.Workers(), err)
			}
		}
		if x, _, err := solve(&BPP{MaxIter: 2, Grouping: true}, g, f, nil); x != nil || !errors.Is(err, mat.ErrNotPositiveDefinite) {
			t.Errorf("poisoned chunk %d: Solve returned x=%v err=%v, want nil and ErrNotPositiveDefinite", poisoned, x != nil, err)
		}
	}
}

// TestBPPToleranceIsGlobal: the zero test scales with the largest
// entry of the whole problem, not of a column's own chunk. A 1e9 entry
// in chunk 0 puts the tolerance near 1e-3, so a dual of −1e-5 in chunk
// 2 counts as feasible and its variable stays at zero; a per-chunk
// tolerance (≈1e-12 there) would free it and return 1e-5.
func TestBPPToleranceIsGlobal(t *testing.T) {
	const k, r = 3, 2*bppChunk + 40
	g := mat.NewDense(k, k)
	for i := 0; i < k; i++ {
		g.Set(i, i, 1)
	}
	f := randomRHS(k, r, 81)
	f.Set(0, 5, 1e9)
	near := 2*bppChunk + 7
	f.Set(0, near, 1)
	f.Set(1, near, 1e-5)
	f.Set(2, near, -1)
	ref, _, err := refBPP(g, f, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	pool := par.NewPool(2)
	defer pool.Close()
	for _, p := range []*par.Pool{nil, pool} {
		dst := mat.NewDense(k, r)
		if _, err := NewBPP().SolveCtx(&Context{Pool: p}, g, f, nil, dst); err != nil {
			t.Fatal(err)
		}
		sameBits(t, "chunked vs unchunked oracle", ref, dst)
		if got := dst.At(1, near); got != 0 {
			t.Errorf("width %d: near-tolerance variable solved to %g; its chunk used a tolerance of its own", p.Workers(), got)
		}
		if got := dst.At(0, near); got != 1 {
			t.Errorf("width %d: x[0,%d] = %g, want 1", p.Workers(), near, got)
		}
	}
}

// TestBPPNewPatternsAllocateNothing: a serial SolveCtx keeps nothing
// per passive pattern, so a long-lived instance fed right-hand sides
// it has never seen — new patterns every call — allocates nothing once
// its scratch is sized. (The persistent pattern map this replaces paid
// a map insert per unseen pattern and kept every one of them.)
func TestBPPNewPatternsAllocateNothing(t *testing.T) {
	const k, r = 12, bppChunk + 30
	g := randomSPD(k, 91)
	fs := make([]*mat.Dense, 64)
	for i := range fs {
		fs[i] = randomRHS(k, r, 100+uint64(i))
	}
	s, ctx, x := NewBPP(), &Context{WS: mat.NewWorkspace()}, mat.NewDense(k, r)
	call := 0
	round := func() {
		if _, err := s.SolveCtx(ctx, g, fs[call%len(fs)], x, x); err != nil {
			t.Fatal(err)
		}
		call++
	}
	round() // sizes the scratch
	if allocs := testing.AllocsPerRun(len(fs)-2, round); allocs != 0 {
		t.Errorf("SolveCtx on unseen patterns allocates %v times per call", allocs)
	}
}
