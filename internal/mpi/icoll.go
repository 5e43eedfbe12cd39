package mpi

import (
	"fmt"
	"time"
)

// Request is the wait-handle of the nonblocking collective
// IAllGatherV. The posting rank continues computing while the
// collective's schedule makes progress on a background goroutine;
// Wait blocks until the schedule finishes and returns the result.
// Like an MPI_Request:
//
//   - The input buffers (data, counts) belong to the runtime between
//     post and Wait — the caller must not modify them in that window.
//   - The result is valid only after Wait returns; Wait is idempotent
//     (a second Wait returns the same slice without re-waiting).
//   - The posting rank must not run point-to-point traffic between
//     post and Wait (the collective's schedule owns the rank's links).
//
// At most one request per rank is in flight: posting another
// nonblocking collective, entering any blocking collective, or
// returning from the rank body first completes the outstanding
// request. A dropped handle is therefore safe — its schedule is
// finished at the rank's next synchronization point — but its result
// is unreachable.
type Request struct {
	c    *Comm
	done chan struct{}
	out  []float64
	// err is the background schedule's recovered panic, if any; set
	// before done is closed, re-raised on the rank goroutine by Wait.
	err any
	ev  collEvent
	// posted timestamps the post for the overlap-efficiency counters
	// (zero when no metrics registry is attached).
	posted time.Time
	// completed is set once the schedule has been joined — by Wait, by
	// the auto-drain at the next collective, or at the rank body's end.
	completed bool
}

// IAllGatherV posts a nonblocking AllGatherV and returns immediately
// with a wait-handle. The schedule (recursive doubling or Bruck — the
// same message pattern and traffic as the blocking call) runs on a
// background goroutine; Wait returns the full concatenation in rank
// order. Every rank in the communicator must take part with a matching
// call (blocking AllGatherV on some ranks and IAllGatherV on others
// interoperate: the tags agree).
func (c *Comm) IAllGatherV(data []float64, counts []int) *Request {
	c.validateAllGatherV(data, counts)
	ev := c.beginColl(CatAllGather, len(data))
	r := c.post(ev)
	if c.Size() == 1 {
		out := make([]float64, len(data))
		copy(out, data)
		r.fulfill(out)
		return r
	}
	base := c.opBase()
	go r.background(func() []float64 {
		if isPow2(c.Size()) {
			return c.allGatherRecursiveDoubling(base, data, counts, CatAllGather)
		}
		return c.allGatherBruck(base, data, counts, CatAllGather)
	})
	return r
}

// post registers a fresh request as the rank's outstanding one.
// beginColl has already drained any previous request, so the slot is
// free, and the tag base is reserved synchronously by the caller —
// both keep the lockstep collective sequence identical to the
// blocking schedule.
func (c *Comm) post(ev collEvent) *Request {
	r := &Request{c: c, done: make(chan struct{}), ev: ev}
	if c.world.metrics != nil {
		r.posted = time.Now()
	}
	c.world.outstanding[c.WorldRank()] = r
	return r
}

// fulfill resolves a request synchronously (single-rank communicators).
func (r *Request) fulfill(out []float64) {
	r.out = out
	close(r.done)
}

// background runs the collective schedule off the rank goroutine. A
// panic in the schedule — an injected kill, a deadline, an abort from
// a failing peer — is captured into the request AND recorded as the
// rank's failure immediately, so sibling ranks unblock even if the
// handle is never waited on; Wait re-raises it on the rank goroutine.
func (r *Request) background(schedule func() []float64) {
	defer close(r.done)
	defer func() {
		if e := recover(); e != nil {
			r.err = e
			r.c.world.recordFailure(r.c.WorldRank(), e)
		}
	}()
	r.out = schedule()
}

// Wait blocks until the collective completes and returns its result.
// Idempotent: a second Wait (or a Wait after an auto-drain) returns
// the cached result. If the schedule failed, Wait panics with the
// rank-failure error, as the blocking call would have.
func (r *Request) Wait() []float64 {
	if !r.completed {
		waitStart := time.Now()
		<-r.done
		r.finish()
		r.recordOverlap(waitStart)
	}
	if r.err != nil {
		panic(r.err)
	}
	return r.out
}

// finish marks the request joined: it frees the rank's outstanding
// slot and closes the collective's trace span / latency sample (the
// span covers post → join, the request's true extent).
func (r *Request) finish() {
	r.completed = true
	slot := &r.c.world.outstanding[r.c.WorldRank()]
	if *slot == r {
		*slot = nil
	}
	r.ev.end()
}

// recordOverlap publishes the per-rank overlap-efficiency counters:
// window.ns is the time the schedule had to progress behind the
// rank's compute (post → Wait entry), wait.ns is how long the rank
// then blocked for the remainder. The efficiency gauge is the hidden
// fraction window/(window+wait) — 1.0 means the collective cost the
// rank nothing beyond the post.
func (r *Request) recordOverlap(waitStart time.Time) {
	m := r.c.world.metrics
	if m == nil {
		return
	}
	rank := r.c.WorldRank()
	window := m.Counter(fmt.Sprintf("mpi.rank.%d.overlap.window.ns", rank))
	wait := m.Counter(fmt.Sprintf("mpi.rank.%d.overlap.wait.ns", rank))
	window.Add(waitStart.Sub(r.posted).Nanoseconds())
	wait.Add(time.Since(waitStart).Nanoseconds())
	m.Counter("mpi.overlap.requests").Inc()
	if tot := window.Value() + wait.Value(); tot > 0 {
		m.Gauge(fmt.Sprintf("mpi.rank.%d.overlap.efficiency", rank)).
			Set(float64(window.Value()) / float64(tot))
	}
}

// completeOutstanding joins the rank's in-flight nonblocking
// collective, if any. Every blocking collective entry and every
// nonblocking post implies this join, so at most one collective
// schedule is ever active per rank — which is what keeps the per-link
// pending queues and the traffic counters single-goroutine. The join
// counts toward the overlap metrics (the drain point is where the
// rank truly paid for the collective) and re-raises a captured
// schedule failure on the rank goroutine.
func (c *Comm) completeOutstanding() {
	r := c.world.outstanding[c.WorldRank()]
	if r == nil || r.completed {
		return
	}
	waitStart := time.Now()
	<-r.done
	r.finish()
	r.recordOverlap(waitStart)
	if r.err != nil {
		panic(r.err)
	}
}

// joinOutstanding quietly joins a rank's in-flight schedule at the end
// of Run so no background goroutine outlives the world. Failures were
// already recorded by the schedule itself; this must not re-panic (it
// runs after the rank body's recover).
func (w *World) joinOutstanding(rank int) {
	r := w.outstanding[rank]
	if r == nil || r.completed {
		return
	}
	<-r.done
	r.finish()
}
