package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestStreamDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams with equal seeds diverged at step %d", i)
		}
	}
}

func TestStreamSeedsDiffer(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("streams with different seeds collided %d/100 times", same)
	}
}

func TestNewSubIndependence(t *testing.T) {
	a, b := NewSub(7, 0), NewSub(7, 1)
	if a.Uint64() == b.Uint64() {
		t.Fatal("sub-streams with different ids produced equal first output")
	}
}

func TestFloat64Range(t *testing.T) {
	s := New(3)
	for i := 0; i < 10000; i++ {
		v := s.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of [0,1): %v", v)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	s := New(4)
	sum := 0.0
	n := 100000
	for i := 0; i < n; i++ {
		sum += s.Float64()
	}
	mean := sum / float64(n)
	if math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("uniform mean %.4f too far from 0.5", mean)
	}
}

func TestIntnBounds(t *testing.T) {
	s := New(5)
	seen := map[int]bool{}
	for i := 0; i < 1000; i++ {
		v := s.Intn(7)
		if v < 0 || v >= 7 {
			t.Fatalf("Intn(7) out of range: %d", v)
		}
		seen[v] = true
	}
	if len(seen) != 7 {
		t.Fatalf("Intn(7) hit only %d distinct values in 1000 draws", len(seen))
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestNormalMoments(t *testing.T) {
	s := New(6)
	n := 200000
	sum, sumSq := 0.0, 0.0
	for i := 0; i < n; i++ {
		v := s.Normal()
		sum += v
		sumSq += v * v
	}
	mean := sum / float64(n)
	variance := sumSq/float64(n) - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Fatalf("normal mean %.4f too far from 0", mean)
	}
	if math.Abs(variance-1) > 0.03 {
		t.Fatalf("normal variance %.4f too far from 1", variance)
	}
}

func TestPermIsPermutation(t *testing.T) {
	s := New(8)
	for _, n := range []int{0, 1, 2, 10, 100} {
		p := s.Perm(n)
		if len(p) != n {
			t.Fatalf("Perm(%d) has length %d", n, len(p))
		}
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				t.Fatalf("Perm(%d) = %v is not a permutation", n, p)
			}
			seen[v] = true
		}
	}
}

func TestAtDeterministic(t *testing.T) {
	if At(9, 3, 4) != At(9, 3, 4) {
		t.Fatal("At is not a pure function")
	}
	if At(9, 3, 4) == At(9, 4, 3) {
		t.Fatal("At(seed,3,4) == At(seed,4,3): coordinates not mixed")
	}
	if At(9, 3, 4) == At(10, 3, 4) {
		t.Fatal("At ignores seed")
	}
}

func TestAtRangeProperty(t *testing.T) {
	f := func(seed uint64, i, j uint16) bool {
		v := At(seed, int(i), int(j))
		return v >= 0 && v < 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestAtUniformity(t *testing.T) {
	// Chi-squared-style bucket check over a 100x100 grid of coords.
	const buckets = 10
	counts := make([]int, buckets)
	for i := 0; i < 100; i++ {
		for j := 0; j < 100; j++ {
			counts[int(At(11, i, j)*buckets)]++
		}
	}
	for b, c := range counts {
		if c < 800 || c > 1200 {
			t.Fatalf("bucket %d has %d/10000 samples; expected ~1000", b, c)
		}
	}
}
