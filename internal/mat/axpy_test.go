package mat

import (
	"math"
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

// TestAxpyDispatchBitwise pins every non-FMA dispatch level against
// the generic loops, bit for bit, across vector lengths covering all
// unroll remainders and the IEEE special-value corners.
func TestAxpyDispatchBitwise(t *testing.T) {
	restoreISA(t)
	cases := makeAxpyCases(t)
	for _, isa := range SupportedISAs() {
		if isa == "avx2+fma" {
			continue // tolerance-tested separately
		}
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

// TestAxpyFMAWithinTolerance checks the opt-in FMA variants against
// the generic loops with a rounding tolerance: each of the four
// product terms loses one intermediate rounding under contraction, so
// per-element error is bounded by a few ulps of the running sum.
func TestAxpyFMAWithinTolerance(t *testing.T) {
	restoreISA(t)
	has := false
	for _, isa := range SupportedISAs() {
		if isa == "avx2+fma" {
			has = true
		}
	}
	if !has {
		t.Skip("CPU lacks FMA")
	}
	cases := makeAxpyCases(t)
	if err := SetISA("avx2+fma"); err != nil {
		t.Fatal(err)
	}
	if !FMAActive() {
		t.Fatal("FMAActive() = false after SetISA(avx2+fma)")
	}
	const tol = 1e-13
	check := func(name string, got, want []float64, ci int) {
		for i := range got {
			g, w := got[i], want[i]
			if math.IsNaN(w) {
				if !math.IsNaN(g) {
					t.Errorf("fma %s case %d: [%d] = %g, want NaN", name, ci, i, g)
				}
				continue
			}
			if g == w { // covers ±Inf, where g-w is NaN
				continue
			}
			scale := math.Max(1, math.Abs(w))
			if d := math.Abs(g - w); !(d <= tol*scale) {
				t.Errorf("fma %s case %d: [%d] = %g, want %g (|d|=%g)", name, ci, i, g, w, d)
			}
		}
	}
	for ci, ac := range cases {
		c0 := append([]float64(nil), ac.c0...)
		c1 := append([]float64(nil), ac.c1...)
		axpy42(c0, c1, ac.b0, ac.b1, ac.b2, ac.b3, &ac.vw)
		check("axpy42/c0", c0, ac.want42c0, ci)
		check("axpy42/c1", c1, ac.want42c1, ci)
		v4 := [4]float64{ac.vw[0], ac.vw[1], ac.vw[2], ac.vw[3]}
		c := append([]float64(nil), ac.c0...)
		Axpy4(c, ac.b0, ac.b1, ac.b2, ac.b3, &v4)
		check("Axpy4", c, ac.want4, ci)
		c = append([]float64(nil), ac.c0...)
		Axpy(c, ac.b0, ac.vw[0])
		check("Axpy", c, ac.want1, ci)
	}
}

// TestTileFMAWithinTolerance checks that the FMA opt-in reaches the
// tile kernel — A·Hᵀ and H·Hᵀ contract like Wᵀ·A does, instead of
// silently staying uncontracted — and stays within rounding of the
// references: each of the n product terms loses one intermediate
// rounding.
func TestTileFMAWithinTolerance(t *testing.T) {
	restoreISA(t)
	if err := SetISA("avx2+fma"); err != nil {
		t.Skip("CPU lacks FMA")
	}
	s := rng.New(78)
	const m, k, n = 9, 17, 50
	a := randomSigned(m, n, s)
	h := randomSigned(k, n, s)
	want := NewDense(m, k)
	RefMulABtTo(want, a, h)
	wantG := RefGramT(h)
	const tol = 1e-13
	check := func(name string, got, want *Dense) {
		contracted := false
		for i, g := range got.Data {
			w := want.Data[i]
			contracted = contracted || g != w
			if d := math.Abs(g - w); !(d <= tol*math.Max(1, math.Abs(w))) {
				t.Errorf("fma %s: [%d] = %g, want %g (|d|=%g)", name, i, g, w, d)
			}
		}
		if !contracted {
			t.Errorf("fma %s is bitwise equal to the uncontracted reference: the opt-in did not reach the kernel", name)
		}
	}
	check("MulABt", MulABt(a, h), want)
	check("GramT", GramT(h), wantG)
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
	if FMAActive() {
		t.Error("FMA active at generic level")
	}
	for _, isa := range SupportedISAs() {
		if err := SetISA(isa); err != nil {
			t.Errorf("SetISA(%q) on a supported ISA: %v", isa, err)
		} else if got := ISA(); got != isa {
			t.Errorf("ISA() = %q after SetISA(%q)", got, isa)
		}
	}
	// "fma" alone and "avx2,fma" are aliases of "avx2+fma" when
	// supported; both must fail cleanly when not.
	err := SetISA("fma")
	if FMAActive() {
		if err != nil {
			t.Errorf("SetISA(fma): %v", err)
		}
		if got := ISA(); got != "avx2+fma" {
			t.Errorf("ISA() = %q after SetISA(fma)", got)
		}
		prev := SetFMA(false)
		if !prev {
			t.Error("SetFMA(false) reported FMA previously off")
		}
		if ISA() != "avx2" {
			t.Errorf("ISA() = %q after SetFMA(false)", ISA())
		}
	} else if err == nil {
		t.Error("SetISA(fma) succeeded but FMAActive() is false")
	}
}
