package mpi

import (
	"math"
	"testing"
)

// vPayload is the deterministic pseudo-random word (rank, index) for
// the v-collective cross-checks.
func vPayload(seed int64, r, i int) float64 {
	return float64((int64(r*7919+i)*2654435761 + seed) % 1009)
}

// checkVCollectives runs every v-variant collective — all-gatherv,
// reduce-scatter, gatherv — on the given counts layout and verifies
// each against its serial definition. Returns false on any mismatch.
func checkVCollectives(t *testing.T, p int, counts []int, seed int64) bool {
	t.Helper()
	total := 0
	for _, c := range counts {
		total += c
	}
	// Serial references.
	concat := make([]float64, 0, total)
	for r := 0; r < p; r++ {
		for i := 0; i < counts[r]; i++ {
			concat = append(concat, vPayload(seed, r, i))
		}
	}
	colSums := make([]float64, total)
	for i := range colSums {
		for r := 0; r < p; r++ {
			colSums[i] += vPayload(seed, r, i)
		}
	}
	root := int(seed) % p
	if root < 0 {
		root += p
	}

	ok := true
	fail := func(format string, args ...any) {
		ok = false
		t.Errorf(format, args...)
	}
	w := NewWorld(p)
	w.Run(func(c *Comm) {
		me := c.Rank()
		mine := make([]float64, counts[me])
		for i := range mine {
			mine[i] = vPayload(seed, me, i)
		}

		// AllGatherV = concatenation by rank, on every rank.
		got := c.AllGatherV(mine, counts)
		if len(got) != total {
			fail("p=%d: AllGatherV length %d, want %d", p, len(got), total)
			return
		}
		for i := range got {
			if got[i] != concat[i] {
				fail("p=%d: AllGatherV[%d] = %v, want %v", p, i, got[i], concat[i])
				return
			}
		}

		// ReduceScatter = elementwise sum, scattered by counts. Every
		// rank contributes the full vector indexed identically.
		full := make([]float64, total)
		for i := range full {
			full[i] = vPayload(seed, me, i)
		}
		off := 0
		for r := 0; r < me; r++ {
			off += counts[r]
		}
		seg := c.ReduceScatter(full, counts)
		if len(seg) != counts[me] {
			fail("p=%d: ReduceScatter segment %d, want %d", p, len(seg), counts[me])
			return
		}
		for i := range seg {
			if math.Abs(seg[i]-colSums[off+i]) > 1e-9*math.Max(1, math.Abs(colSums[off+i])) {
				fail("p=%d: ReduceScatter[%d] = %v, want %v", p, i, seg[i], colSums[off+i])
				return
			}
		}

		// GatherV concentrates the concatenation on the root.
		gathered := c.GatherV(root, mine, counts)
		if me == root {
			if len(gathered) != total {
				fail("p=%d: GatherV length %d, want %d", p, len(gathered), total)
				return
			}
			for i := range gathered {
				if gathered[i] != concat[i] {
					fail("p=%d: GatherV[%d] = %v, want %v", p, i, gathered[i], concat[i])
					return
				}
			}
		} else if gathered != nil {
			fail("p=%d: non-root rank %d got GatherV result", p, me)
			return
		}
	})
	return ok
}

// TestVCollectivesUnevenLayouts covers the hand-picked hard layouts:
// zero-length contributions, a single rank holding everything
// (maximally uneven), and alternating empty/full ranks, across
// power-of-two and non-power-of-two sizes.
func TestVCollectivesUnevenLayouts(t *testing.T) {
	for _, p := range []int{1, 2, 3, 4, 5, 6, 7, 8} {
		layouts := [][]int{
			make([]int, p), // all-zero: every rank contributes nothing
		}
		// Maximally uneven: one rank owns all the words.
		for holder := 0; holder < p; holder += max(1, p/2) {
			counts := make([]int, p)
			counts[holder] = 13
			layouts = append(layouts, counts)
		}
		// Alternating zero / nonzero and a ragged ramp.
		alt := make([]int, p)
		ramp := make([]int, p)
		for r := 0; r < p; r++ {
			if r%2 == 1 {
				alt[r] = 3
			}
			ramp[r] = r
		}
		layouts = append(layouts, alt, ramp)
		for li, counts := range layouts {
			if !checkVCollectives(t, p, counts, int64(p*100+li)) {
				t.Fatalf("p=%d layout %d (%v) failed", p, li, counts)
			}
		}
	}
}

// TestVCollectivesPropertyRandomPayloads drives the same cross-check
// from randomized counts (including zero-length ranks) for p ∈ {1..8}.
func TestVCollectivesPropertyRandomPayloads(t *testing.T) {
	f := func(pRaw uint8, countsRaw [8]uint8, seed int64) bool {
		p := int(pRaw)%8 + 1
		counts := make([]int, p)
		for r := range counts {
			counts[r] = int(countsRaw[r]) % 6 // 0..5 words per rank
		}
		return checkVCollectives(t, p, counts, seed)
	}
	if err := quickCheck(f, 30); err != nil {
		t.Fatal(err)
	}
}

// FuzzCollectives is the fuzz form of the cross-check: the engine
// mutates the rank count, the per-rank word counts, and the payload
// seed. Run with `go test -fuzz=FuzzCollectives ./internal/mpi`.
func FuzzCollectives(f *testing.F) {
	f.Add(uint8(4), uint8(1), uint8(2), uint8(3), uint8(0), int64(42))
	f.Add(uint8(8), uint8(0), uint8(0), uint8(13), uint8(0), int64(-7)) // maximally uneven
	f.Add(uint8(1), uint8(5), uint8(0), uint8(0), uint8(0), int64(0))
	f.Add(uint8(7), uint8(2), uint8(0), uint8(2), uint8(0), int64(99)) // non-power-of-two
	f.Fuzz(func(t *testing.T, pRaw, c0, c1, c2, c3 uint8, seed int64) {
		p := int(pRaw)%8 + 1
		pattern := []int{int(c0) % 9, int(c1) % 9, int(c2) % 9, int(c3) % 9}
		counts := make([]int, p)
		for r := range counts {
			counts[r] = pattern[r%len(pattern)]
		}
		if !checkVCollectives(t, p, counts, seed) {
			t.Fatalf("p=%d counts=%v seed=%d diverged from serial reference", p, counts, seed)
		}
	})
}
