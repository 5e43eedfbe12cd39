// Package mpi is an in-process message-passing runtime that stands in
// for MPI in this reproduction (Go has no MPI ecosystem). Each rank is
// a goroutine; ranks exchange typed messages over per-pair channels;
// the collectives — broadcast, all-gather(v), reduce-scatter(v),
// all-reduce, gather(v), barrier — are implemented with the
// same distributed algorithms an MPI library uses (binomial trees,
// recursive doubling/halving, Bruck, pairwise exchange), so the number
// of messages and words each rank sends is exactly what an MPI rank
// would send. Per-rank traffic counters, broken down by collective
// type, feed the α-β-γ cost model that reproduces the paper's
// communication analysis (§2.2–2.3).
//
// Usage:
//
//	world := mpi.NewWorld(16)
//	world.Run(func(c *mpi.Comm) {
//	    sum := c.AllReduce([]float64{float64(c.Rank())})
//	    ...
//	})
package mpi

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"hpcnmf/internal/metrics"
	"hpcnmf/internal/trace"
)

// message is the unit of point-to-point communication. Payloads are
// copied on send, so the receiver owns the returned slice.
type message struct {
	tag  int
	data []float64
}

// World is a set of p ranks with a fully connected network, matching
// the communication model of the paper (§2.2).
type World struct {
	p     int
	links []chan message // links[src*p+dst]
	// pending stashes messages that arrived ahead of the receive that
	// matches their tag (MPI-style tag matching). Indexed like links;
	// each queue is touched only by the destination rank's goroutine,
	// so no locking is needed.
	pending [][]message
	abort   chan struct{} // closed when any rank fails
	once    sync.Once
	// failure is the first rank failure, recorded under once before
	// abort is closed; survivors read it only after observing the
	// close, so the write is ordered before every read.
	failure *RankFailedError
	// deadline bounds how long a receive may block before the runtime
	// declares a deadlock (a mismatched collective schedule, the
	// failure mode MPI surfaces as a hang), and a blocked send the
	// same way (a send only blocks when the receiving rank has stopped
	// draining its links). Zero disables.
	deadline time.Duration
	// fault, when non-nil, is consulted at every collective entry
	// (see FaultFunc); the injection layer in internal/fault provides
	// implementations. Set before Run.
	fault FaultFunc

	// counters holds each world rank's traffic. Run starts one
	// goroutine per rank and every collective runs on its caller's
	// goroutine, so during Run each entry, like each pending queue, is
	// touched by one goroutine only.
	counters []*Counters

	// tracers holds one event tracer per rank when tracing is on
	// (SetTracing); nil otherwise. Each tracer is only touched by its
	// rank's goroutine, preserving the no-lock hot path.
	tracers []*trace.Tracer
	// metrics is the shared instrument registry when attached
	// (SetMetrics); nil otherwise. collLatency caches the per-category
	// latency histograms, each registered at its category's first
	// observation (latency), so the collectives skip the name lookup.
	metrics     *metrics.Registry
	collLatency [numCategories]atomic.Pointer[metrics.Histogram]
}

// NewWorld creates a world with p ranks. The per-pair channel buffer
// is sized so that every collective algorithm in this package can
// complete its send phase without blocking on a matching receive.
func NewWorld(p int) *World {
	if p <= 0 {
		panic(fmt.Sprintf("mpi: world size %d", p))
	}
	w := &World{
		p:        p,
		links:    make([]chan message, p*p),
		pending:  make([][]message, p*p),
		abort:    make(chan struct{}),
		counters: make([]*Counters, p),
	}
	for i := range w.links {
		w.links[i] = make(chan message, 16)
	}
	for i := range w.counters {
		w.counters[i] = NewCounters()
	}
	w.deadline = 2 * time.Minute
	return w
}

// SetDeadline sets the send and receive deadline: a send or receive
// blocking longer than d fails the rank with a typed RankFailedError
// (ErrDeadline) instead of hanging the process (0 disables). The
// default is generous (2 minutes); Options.CommDeadline maps to it,
// and tests that provoke deadlocks deliberately set it short.
func (w *World) SetDeadline(d time.Duration) { w.deadline = d }

// SetFault arms fault injection: f is consulted at every collective
// entry on every rank (nil disarms — the default — and costs the hot
// path a single nil check). Must be called before Run.
func (w *World) SetFault(f FaultFunc) { w.fault = f }

// SetTracing attaches one event tracer per rank from a trace session
// created for this world's size. Every collective records a span on
// its rank's track; nil detaches. Must be called before Run.
func (w *World) SetTracing(s *trace.Session) {
	if s == nil {
		w.tracers = nil
		return
	}
	if s.Ranks() != w.p {
		panic(fmt.Sprintf("mpi: trace session has %d ranks, world has %d", s.Ranks(), w.p))
	}
	w.tracers = make([]*trace.Tracer, w.p)
	for r := range w.tracers {
		w.tracers[r] = s.Tracer(r)
	}
}

// SetMetrics attaches a shared metrics registry: each collective call
// observes its wall-clock latency into a per-category histogram
// (mpi.collective.seconds.<Category>, registered at the category's
// first call, so a category no collective charges leaves no series),
// and Run publishes per-rank message/word totals as gauges when it
// finishes. nil detaches. Must be called before Run.
func (w *World) SetMetrics(reg *metrics.Registry) {
	w.metrics = reg
	for i := range w.collLatency {
		w.collLatency[i].Store(nil)
	}
}

// latency returns cat's latency histogram, nil without a registry. The
// first call for a category registers it; ranks race to do so, and the
// registry hands each of them the same histogram.
func (w *World) latency(cat Category) *metrics.Histogram {
	if w.metrics == nil {
		return nil
	}
	h := w.collLatency[cat].Load()
	if h == nil {
		h = w.metrics.Histogram("mpi.collective.seconds." + cat.String())
		w.collLatency[cat].Store(h)
	}
	return h
}

// publishMetrics exports the per-rank traffic totals into the
// attached registry (gauges, so repeated Runs overwrite rather than
// double-count).
func (w *World) publishMetrics() {
	for r, ctr := range w.counters {
		t := ctr.Total()
		w.metrics.Gauge(fmt.Sprintf("mpi.rank.%d.msgs", r)).Set(float64(t.Msgs))
		w.metrics.Gauge(fmt.Sprintf("mpi.rank.%d.words", r)).Set(float64(t.Words))
	}
}

// Run executes body once per rank, concurrently, and waits for all
// ranks to finish. If any rank fails — an application panic, an
// injected kill, or a communication deadline — the failure is recorded
// as a RankFailedError, all pending communication is aborted so
// sibling ranks unblock (they fail fast with the same error instead of
// deadlocking), and Run re-panics with the first failure.
func (w *World) Run(body func(c *Comm)) {
	if err := w.RunErr(body); err != nil {
		panic(err)
	}
}

// RunErr is Run returning the first rank failure, a *RankFailedError,
// instead of panicking with it: the Go error contract for drivers that
// hand the failure, with its cause in the chain, to their callers.
func (w *World) RunErr(body func(c *Comm)) error {
	var wg sync.WaitGroup
	wg.Add(w.p)
	for r := 0; r < w.p; r++ {
		go func(rank int) {
			defer wg.Done()
			defer func() {
				if e := recover(); e != nil {
					w.recordFailure(rank, e)
				}
			}()
			body(w.worldComm(rank))
		}(r)
	}
	wg.Wait()
	if w.failure != nil {
		return w.failure
	}
	if w.metrics != nil {
		w.publishMetrics()
	}
	return nil
}

// recordFailure stores the first rank failure and broadcasts the abort
// (the runtime's MPI_Abort): later failures — including the survivors'
// own abort panics — are dropped, so the error every rank ultimately
// observes attributes the original fault.
func (w *World) recordFailure(rank int, cause any) {
	w.once.Do(func() {
		switch e := cause.(type) {
		case *RankFailedError:
			w.failure = e
		case error:
			w.failure = &RankFailedError{Rank: rank, Site: "run body", Err: e}
		default:
			w.failure = &RankFailedError{Rank: rank, Site: "run body", Err: fmt.Errorf("panic: %v", e)}
		}
		close(w.abort)
	})
}

// abortPanic fails the calling rank with the already-recorded world
// failure. Only called after observing the abort channel closed, which
// orders the failure write before this read.
func (w *World) abortPanic() {
	panic(w.failure)
}

// worldComm returns the world communicator for a given rank: all p
// ranks, identity mapping.
func (w *World) worldComm(rank int) *Comm {
	members := make([]int, w.p)
	for i := range members {
		members[i] = i
	}
	cm := &Comm{world: w, rank: rank, members: members, id: 0}
	if w.tracers != nil {
		cm.tracer = w.tracers[rank]
	}
	return cm
}

// send delivers a message from world rank src to world rank dst,
// charging msgs/words to src's counters under category cat.
func (w *World) send(src, dst, tag int, data []float64, cat Category) {
	// Copy so the sender may immediately reuse its buffer: MPI_Send
	// semantics without aliasing hazards.
	payload := make([]float64, len(data))
	copy(payload, data)
	w.counters[src].Add(cat, 1, int64(len(data)))
	select {
	case w.links[src*w.p+dst] <- message{tag: tag, data: payload}:
		return
	case <-w.abort:
		w.abortPanic()
	default:
	}
	// Slow path: the link buffer is full, so the destination rank has
	// stopped draining — block with the send deadline armed.
	var timeout <-chan time.Time
	if w.deadline > 0 {
		timer := time.NewTimer(w.deadline)
		defer timer.Stop()
		timeout = timer.C
	}
	select {
	case w.links[src*w.p+dst] <- message{tag: tag, data: payload}:
	case <-w.abort:
		w.abortPanic()
	case <-timeout:
		panic(deadlineError(src, fmt.Sprintf("send tag %d to rank %d", tag, dst), w.deadline))
	}
}

// recv blocks until a message with the given tag from world rank src
// to dst is available. Messages with other tags that arrive first are
// stashed, implementing MPI-style tag matching so point-to-point
// traffic and collectives can interleave on the same rank pair.
func (w *World) recv(src, dst, tag int) []float64 {
	link := src*w.p + dst
	for i, m := range w.pending[link] {
		if m.tag == tag {
			w.pending[link] = append(w.pending[link][:i], w.pending[link][i+1:]...)
			return m.data
		}
	}
	// Fast path: a matching message is already queued.
	for {
		select {
		case m := <-w.links[link]:
			if m.tag == tag {
				return m.data
			}
			w.pending[link] = append(w.pending[link], m)
			continue
		case <-w.abort:
			w.abortPanic()
		default:
		}
		break
	}
	// Slow path: block, with the deadlock detector armed.
	var timeout <-chan time.Time
	if w.deadline > 0 {
		timer := time.NewTimer(w.deadline)
		defer timer.Stop()
		timeout = timer.C
	}
	for {
		select {
		case m := <-w.links[link]:
			if m.tag == tag {
				return m.data
			}
			w.pending[link] = append(w.pending[link], m)
		case <-w.abort:
			w.abortPanic()
		case <-timeout:
			panic(deadlineError(dst, fmt.Sprintf("recv tag %d from rank %d", tag, src), w.deadline))
		}
	}
}
