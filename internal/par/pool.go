// Package par provides the shared goroutine worker pool under the
// compute kernels. The design mirrors a threaded BLAS under each MPI
// rank in the paper's runs: rank-level parallelism (one goroutine per
// simulated rank) stays the outer layer, and a Pool adds a second,
// inner layer that splits kernel row ranges across OS threads when
// ranks are fewer than cores.
//
// A nil *Pool is valid everywhere and means "run inline on the caller"
// — the default KernelThreads=1 configuration pays neither goroutines
// nor channel traffic, which keeps the zero-allocation guarantee of
// the steady-state iteration loops intact.
//
// One Pool may be shared by many rank goroutines: For is safe for
// concurrent calls, each with its own completion wait group, so p
// ranks × t kernel threads never spawn more than t workers total.
package par

import (
	"runtime"
	"sync"
)

// Pool is a fixed set of long-lived worker goroutines executing row
// ranges of kernel loops. Create with NewPool, release with Close.
type Pool struct {
	workers int
	jobs    chan job

	closeOnce sync.Once
}

// job is one contiguous index range of a For call.
type job struct {
	fn     func(lo, hi int)
	lo, hi int
	wg     *sync.WaitGroup
}

// NewPool returns a pool with the given number of worker threads, or
// nil (the inline pool) when threads ≤ 1. threads ≤ 0 and 1 are both
// "no extra parallelism" so callers can pass options through
// unvalidated.
func NewPool(threads int) *Pool {
	if threads <= 1 {
		return nil
	}
	if max := 4 * runtime.NumCPU(); threads > max {
		// More workers than 4× cores only adds scheduling overhead;
		// clamp quietly so misconfigured runs degrade instead of
		// thrashing.
		threads = max
	}
	if threads <= 1 {
		return nil
	}
	p := &Pool{
		workers: threads,
		// Buffer enough for several concurrent For calls to enqueue
		// without blocking the caller before it starts its own share.
		jobs: make(chan job, 4*threads),
	}
	for i := 0; i < threads; i++ {
		go p.worker()
	}
	return p
}

// Workers returns the worker count; 1 for the nil (inline) pool.
func (p *Pool) Workers() int {
	if p == nil {
		return 1
	}
	return p.workers
}

func (p *Pool) worker() {
	for j := range p.jobs {
		j.fn(j.lo, j.hi)
		j.wg.Done()
	}
}

// Close stops the workers. For must not be called after Close.
// Close on a nil pool is a no-op, so `defer pool.Close()` composes
// with the inline configuration.
func (p *Pool) Close() {
	if p == nil {
		return
	}
	p.closeOnce.Do(func() { close(p.jobs) })
}

// For executes fn over [0, n) split into contiguous chunks, one per
// worker, and returns when all chunks are done. minGrain is the
// smallest range worth shipping to a worker: when n < 2·minGrain (or
// the pool is nil) the whole range runs inline on the caller, so tiny
// kernels skip the synchronization entirely.
//
// The caller always executes the first chunk itself, so a For over w
// workers enqueues only w−1 jobs and never idles the calling
// goroutine. Chunks are disjoint; fn must not assume any ordering
// between them.
func (p *Pool) For(n, minGrain int, fn func(lo, hi int)) {
	if n <= 0 {
		return
	}
	minGrain = max(minGrain, 1)
	if p == nil || n < 2*minGrain {
		fn(0, n)
		return
	}
	chunks := p.workers
	if c := n / minGrain; c < chunks {
		chunks = c
	}
	if chunks <= 1 {
		fn(0, n)
		return
	}
	var wg sync.WaitGroup
	wg.Add(chunks - 1)
	// Split as evenly as possible: the first (n mod chunks) chunks get
	// one extra element.
	size, rem := n/chunks, n%chunks
	lo := 0
	for c := 1; c < chunks; c++ {
		hi := lo + size
		if c <= rem {
			hi++
		}
		p.jobs <- job{fn: fn, lo: lo, hi: hi, wg: &wg}
		lo = hi
	}
	fn(lo, n) // caller's own share (the last chunk)
	wg.Wait()
}

// ForRanges executes fn over the half-open ranges defined by
// consecutive elements of bounds (bounds[i] to bounds[i+1]), one range
// per worker slot. It exists for kernels whose per-index cost is not
// uniform (triangular updates): the caller computes balanced
// boundaries and ForRanges runs them concurrently. Empty ranges are
// skipped. The caller executes the last non-empty range itself.
func (p *Pool) ForRanges(bounds []int, fn func(lo, hi int)) {
	nr := len(bounds) - 1
	if nr <= 0 {
		return
	}
	if p == nil || nr == 1 {
		for i := 0; i < nr; i++ {
			if bounds[i] < bounds[i+1] {
				fn(bounds[i], bounds[i+1])
			}
		}
		return
	}
	var wg sync.WaitGroup
	last := -1 // index of the final non-empty range, run inline
	for i := nr - 1; i >= 0; i-- {
		if bounds[i] < bounds[i+1] {
			last = i
			break
		}
	}
	if last < 0 {
		return
	}
	for i := 0; i < last; i++ {
		if bounds[i] >= bounds[i+1] {
			continue
		}
		wg.Add(1)
		p.jobs <- job{fn: fn, lo: bounds[i], hi: bounds[i+1], wg: &wg}
	}
	fn(bounds[last], bounds[last+1])
	wg.Wait()
}
