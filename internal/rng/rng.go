// Package rng provides deterministic, splittable pseudo-random number
// generation for reproducible distributed experiments.
//
// The package serves two distinct needs of the NMF reproduction:
//
//   - Sequential streams (Stream) for bulk data generation, seeded per
//     logical purpose so that every process in a simulated cluster can
//     generate its own shard of a dataset without communication
//     (the paper, §6.1.1: "Every process will have its own prime seed").
//
//   - Element-addressed generation (At) where the value at
//     logical index (i, j) depends only on (seed, i, j) and never on
//     how the matrix is laid out across processes. This is what lets a
//     sequential run, the Naive algorithm, and HPC-NMF on any grid all
//     start from the exact same initial factor H (§6.1.3: "the initial
//     random matrix H was generated with the same random seed when
//     testing with different algorithms").
//
// The core generator is SplitMix64 (Steele, Lea, Flood 2014), which is
// trivially seedable, passes BigCrush, and — crucially — is stateless
// when used in counter mode, making element addressing exact.
package rng

import "math"

// splitmix64 advances a SplitMix64 state and returns the next output.
func splitmix64(state uint64) (uint64, uint64) {
	state += 0x9e3779b97f4a7c15
	z := state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return state, z ^ (z >> 31)
}

// Mix hashes a 64-bit value with SplitMix64's finalizer. It is used to
// combine seeds and coordinates into statistically independent streams.
func Mix(x uint64) uint64 {
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Stream is a sequential pseudo-random stream.
// The zero value is a valid stream seeded with 0.
type Stream struct {
	state uint64
}

// New returns a Stream seeded with seed.
func New(seed uint64) *Stream {
	return &Stream{state: Mix(seed ^ 0x5851f42d4c957f2d)}
}

// NewSub derives an independent child stream from seed and a stream
// identifier. Streams with distinct ids do not overlap in practice.
func NewSub(seed, id uint64) *Stream {
	return &Stream{state: Mix(Mix(seed+0x9e3779b97f4a7c15) ^ Mix(id+0xd1b54a32d192ed03))}
}

// Uint64 returns the next 64 uniformly random bits.
func (s *Stream) Uint64() uint64 {
	var out uint64
	s.state, out = splitmix64(s.state)
	return out
}

// Float64 returns a uniform float64 in [0, 1).
func (s *Stream) Float64() float64 {
	return float64(s.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform int in [0, n). It panics if n <= 0.
func (s *Stream) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	// Lemire's nearly-divisionless method would be faster; the simple
	// modulo bias here is < 2^-40 for all n used in this codebase.
	return int(s.Uint64() % uint64(n))
}

// Normal returns a standard normal variate (Box–Muller, one branch).
func (s *Stream) Normal() float64 {
	// Draw until u1 is nonzero so the log is finite.
	u1 := s.Float64()
	for u1 == 0 {
		u1 = s.Float64()
	}
	u2 := s.Float64()
	return math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
}

// Perm returns a random permutation of [0, n) (Fisher–Yates).
func (s *Stream) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := s.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// At returns a uniform float64 in [0, 1) determined solely by
// (seed, i, j). Two calls with equal arguments return equal values
// regardless of any other state, which makes matrix initialization
// independent of data distribution.
func At(seed uint64, i, j int) float64 {
	h := Mix(seed ^ 0x2545f4914f6cdd1d)
	h = Mix(h ^ (uint64(i) + 0x9e3779b97f4a7c15))
	h = Mix(h ^ (uint64(j) + 0xd1b54a32d192ed03))
	return float64(h>>11) / (1 << 53)
}
