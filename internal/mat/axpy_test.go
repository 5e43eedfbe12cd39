package mat

import (
	"math"
	"os"
	"strings"
	"testing"

	"hpcnmf/internal/rng"
)

// restoreISA snapshots the active dispatch state and registers its
// restoration, so tests can switch levels freely.
func restoreISA(t *testing.T) {
	t.Helper()
	prev := ISA()
	t.Cleanup(func() {
		if err := SetISA(prev); err != nil {
			t.Fatalf("restoring ISA %q: %v", prev, err)
		}
	})
}

func randSlice(n int, s *rng.Stream) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = 2*s.Float64() - 1
	}
	return out
}

// axpyCase holds one operand set plus the generic-level expected
// outputs for all three primitives.
type axpyCase struct {
	n                      int
	c0, c1, b0, b1, b2, b3 []float64
	vw                     [8]float64
	want42c0, want42c1     []float64 // axpy42 outputs
	want4                  []float64 // Axpy4 output
	want1                  []float64 // Axpy output
}

func makeAxpyCases(t *testing.T) []axpyCase {
	s := rng.New(77)
	lengths := []int{0, 1, 2, 3, 4, 5, 7, 8, 15, 16, 17, 31, 50, 64, 70}
	var cases []axpyCase
	for _, n := range lengths {
		ac := axpyCase{
			n:  n,
			c0: randSlice(n, s), c1: randSlice(n, s),
			b0: randSlice(n, s), b1: randSlice(n, s),
			b2: randSlice(n, s), b3: randSlice(n, s),
		}
		for i := range ac.vw {
			ac.vw[i] = 2*s.Float64() - 1
		}
		cases = append(cases, ac)
	}
	// Special values: zeros in the scale factors must not short-circuit
	// (0·Inf = NaN) and signed zeros must survive — the same IEEE
	// corners TestNoZeroSkip pins for the blocked kernels.
	sp := axpyCase{
		n:  4,
		c0: []float64{0, math.Copysign(0, -1), 1, -1},
		c1: []float64{1, 2, 3, 4},
		b0: []float64{math.Inf(1), 1, math.Inf(-1), 0},
		b1: []float64{0, math.Copysign(0, -1), 1, 2},
		b2: []float64{1e300, -1e300, 1e-300, 5},
		b3: []float64{-3, 7, 0, math.Inf(1)},
		vw: [8]float64{0, 1, -2, 0.5, 1, 0, 3, -0.25},
	}
	cases = append(cases, sp)

	// Fill in the expected outputs at the generic level.
	if err := SetISA("generic"); err != nil {
		t.Fatal(err)
	}
	for i := range cases {
		ac := &cases[i]
		ac.want42c0 = append([]float64(nil), ac.c0...)
		ac.want42c1 = append([]float64(nil), ac.c1...)
		axpy42(ac.want42c0, ac.want42c1, ac.b0, ac.b1, ac.b2, ac.b3, &ac.vw)
		v4 := [4]float64{ac.vw[0], ac.vw[1], ac.vw[2], ac.vw[3]}
		ac.want4 = append([]float64(nil), ac.c0...)
		Axpy4(ac.want4, ac.b0, ac.b1, ac.b2, ac.b3, &v4)
		ac.want1 = append([]float64(nil), ac.c0...)
		Axpy(ac.want1, ac.b0, ac.vw[0])
	}
	return cases
}

func diffBits(a, b []float64) int {
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return i
		}
	}
	return -1
}

// TestAxpyDispatchBitwise pins every dispatch level against
// the generic loops, bit for bit, across vector lengths covering all
// unroll remainders and the IEEE special-value corners.
func TestAxpyDispatchBitwise(t *testing.T) {
	restoreISA(t)
	cases := makeAxpyCases(t)
	for _, isa := range SupportedISAs() {
		if err := SetISA(isa); err != nil {
			t.Fatalf("SetISA(%q): %v", isa, err)
		}
		for ci, ac := range cases {
			c0 := append([]float64(nil), ac.c0...)
			c1 := append([]float64(nil), ac.c1...)
			axpy42(c0, c1, ac.b0, ac.b1, ac.b2, ac.b3, &ac.vw)
			if i := diffBits(c0, ac.want42c0); i >= 0 {
				t.Errorf("%s axpy42 case %d n=%d: c0[%d] = %x, want %x", isa, ci, ac.n, i,
					math.Float64bits(c0[i]), math.Float64bits(ac.want42c0[i]))
			}
			if i := diffBits(c1, ac.want42c1); i >= 0 {
				t.Errorf("%s axpy42 case %d n=%d: c1[%d] differs", isa, ci, ac.n, i)
			}
			v4 := [4]float64{ac.vw[0], ac.vw[1], ac.vw[2], ac.vw[3]}
			c := append([]float64(nil), ac.c0...)
			Axpy4(c, ac.b0, ac.b1, ac.b2, ac.b3, &v4)
			if i := diffBits(c, ac.want4); i >= 0 {
				t.Errorf("%s Axpy4 case %d n=%d: c[%d] differs", isa, ci, ac.n, i)
			}
			c = append([]float64(nil), ac.c0...)
			Axpy(c, ac.b0, ac.vw[0])
			if i := diffBits(c, ac.want1); i >= 0 {
				t.Errorf("%s Axpy case %d n=%d: c[%d] differs", isa, ci, ac.n, i)
			}
		}
	}
}

// TestSetISA covers the spec parser and its guard rails.
func TestSetISA(t *testing.T) {
	restoreISA(t)
	if err := SetISA("pentium-iii"); err == nil {
		t.Error("SetISA accepted an unknown ISA")
	}
	if err := SetISA(""); err == nil {
		t.Error("SetISA accepted an empty spec")
	}
	if err := SetISA("generic"); err != nil {
		t.Fatal(err)
	}
	if got := ISA(); got != "generic" {
		t.Errorf("ISA() = %q after SetISA(generic)", got)
	}
	for _, isa := range SupportedISAs() {
		if err := SetISA(isa); err != nil {
			t.Errorf("SetISA(%q) on a supported ISA: %v", isa, err)
		} else if got := ISA(); got != isa {
			t.Errorf("ISA() = %q after SetISA(%q)", got, isa)
		}
	}
	// The retired levels are unknown names now, and a refused name
	// changes nothing.
	for _, isa := range SupportedISAs() {
		if isa != "generic" && isa != "avx2" {
			t.Errorf("SupportedISAs() lists %q; only generic and avx2 exist", isa)
		}
	}
	before := ISA()
	for _, retired := range []string{"sse2", "fma", "avx2+fma", "avx2,fma"} {
		err := SetISA(retired)
		if err == nil || !strings.Contains(err.Error(), "unknown ISA") {
			t.Errorf("SetISA(%q) = %v, want an unknown-ISA error", retired, err)
		}
		if got := ISA(); got != before {
			t.Errorf("ISA() = %q after refused SetISA(%q), want %q", got, retired, before)
		}
	}
}

// TestISAForNeedsEveryFeature: the avx2 level runs VFMADD231PD on YMM
// registers, so detection picks it only when the CPU has AVX2 and FMA
// and the OS saves YMM state; any one missing falls back to generic.
func TestISAForNeedsEveryFeature(t *testing.T) {
	all := cpuWords{maxLeaf: 7, ecx1: cpuFMA | cpuOSXSAVE | cpuAVX, ebx7: cpuAVX2, xcr0: xcr0XMMYMM}
	for _, tc := range []struct {
		name string
		edit func(*cpuWords)
		want int32
	}{
		{"all present", func(*cpuWords) {}, isaAVX2},
		{"AVX2 without FMA", func(w *cpuWords) { w.ecx1 &^= cpuFMA }, isaGeneric},
		{"no OSXSAVE", func(w *cpuWords) { w.ecx1 &^= cpuOSXSAVE }, isaGeneric},
		{"no AVX", func(w *cpuWords) { w.ecx1 &^= cpuAVX }, isaGeneric},
		{"YMM state off", func(w *cpuWords) { w.xcr0 = 1 << 1 }, isaGeneric},
		{"no AVX2", func(w *cpuWords) { w.ebx7 = 0 }, isaGeneric},
		{"no leaf 7", func(w *cpuWords) { w.maxLeaf = 6 }, isaGeneric},
	} {
		w := all
		tc.edit(&w)
		if got := isaFor(w); got != tc.want {
			t.Errorf("%s: isaFor = %s, want %s", tc.name, isaNames[got], isaNames[tc.want])
		}
	}
	if !FMAActive() {
		t.Error("FMAActive() = false; every dispatch level is fused")
	}
}

// TestEnvOverrideHonoured fails when HPCNMF_CPU names something init
// quietly ignored, so a CI leg with a stale level name cannot go green
// while testing the detected level instead.
func TestEnvOverrideHonoured(t *testing.T) {
	v, ok := os.LookupEnv("HPCNMF_CPU")
	if !ok {
		t.Skip("HPCNMF_CPU is unset")
	}
	if got := ISA(); got != strings.ToLower(strings.TrimSpace(v)) {
		t.Fatalf("HPCNMF_CPU=%q was not honoured: ISA() = %q (this CPU runs %v)", v, got, SupportedISAs())
	}
}

// atxColumn returns a length-m column of alternating zero runs (±0)
// and nonzero runs, each run 0 to maxRun entries long, so runs start
// and end off the eight-entry boundary of AtxNZ's zero test. Nonzeros mix NaN, ±Inf,
// subnormals and signed normals.
func atxColumn(m, maxRun int, s *rng.Stream) []float64 {
	vals := []float64{math.NaN(), math.Inf(1), math.Inf(-1), 5e-324, -1e-310, 3, -0.5}
	x := make([]float64, m)
	for i, zero := 0, s.Intn(2) == 0; i < m; zero = !zero {
		for n := s.Intn(maxRun + 1); n > 0 && i < m; n, i = n-1, i+1 {
			switch {
			case zero && i%2 == 0:
			case zero:
				x[i] = math.Copysign(0, -1)
			case s.Intn(4) == 0:
				x[i] = vals[s.Intn(len(vals))]
			default:
				x[i] = 2*s.Float64() - 1
			}
		}
	}
	return x
}

// TestAtxNZBitwise pins AtxNZ at every dispatch level to the scalar
// definition — f[j] one math.FMA per nonzero x_i in ascending i from
// +0, Σ x_i² multiplied then added — bit for bit, across widths below
// one vector (the generic loop at every level), every strip width (1–12
// vectors) with and without a 1–3-lane tail, a second and a third
// strip, lengths across the eight-entry zero test, and columns with
// sparse and dense runs. f is written whole and nothing around it.
func TestAtxNZBitwise(t *testing.T) {
	restoreISA(t)
	s := rng.New(91)
	const maxM, maxK = 1000, 100
	a := randSlice(maxM*maxK, s)
	for i := 0; i < len(a); i += 7 {
		a[i] = []float64{0, math.Copysign(0, -1), 5e-324, -1e-310}[i%4]
	}
	var ks, ms []int
	for k := 1; k <= 53; k++ {
		ks = append(ks, k)
	}
	ks = append(ks, 99, maxK)
	for m := 0; m <= 9; m++ {
		ms = append(ms, m)
	}
	ms = append(ms, 63, 64, 65, maxM)
	for _, m := range ms {
		cols := [][]float64{atxColumn(m, 3, s), atxColumn(m, 13, s), make([]float64, m)}
		for _, k := range ks {
			for ci, x := range cols {
				want := make([]float64, k)
				want2 := 0.0
				for i, v := range x {
					if v != 0 {
						want2 += v * v
						for j := range want {
							want[j] = math.FMA(v, a[i*k+j], want[j])
						}
					}
				}
				for _, isa := range SupportedISAs() {
					if err := SetISA(isa); err != nil {
						t.Fatal(err)
					}
					buf := filled(k+5, 1234.5)
					got2 := AtxNZ(buf[1:k+1], a[:m*k], x)
					if i := diffBits(buf[1:k+1], want); i >= 0 {
						t.Errorf("%s m=%d k=%d column %d: f[%d] = %x, want %x", isa, m, k, ci, i, math.Float64bits(buf[1+i]), math.Float64bits(want[i]))
					}
					if math.Float64bits(got2) != math.Float64bits(want2) {
						t.Errorf("%s m=%d k=%d column %d: Σx² = %g, want %g", isa, m, k, ci, got2, want2)
					}
					if buf[0] != 1234.5 || diffBits(buf[k+1:], filled(4, 1234.5)) >= 0 {
						t.Errorf("%s m=%d k=%d column %d: wrote outside f", isa, m, k, ci)
					}
				}
			}
		}
	}
}
