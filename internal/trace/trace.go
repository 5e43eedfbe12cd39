// Package trace is a low-overhead per-rank event tracer for the
// simulated MPI runtime and the NMF iteration loop. Each rank owns one
// Tracer (the same single-owner discipline as perf.Ledger), so the
// hot path takes no locks: recording an event is two clock reads and a
// ring-buffer store on a structure only that rank's goroutine touches.
// After a run, Session.Merge collects every rank's events into one
// Trace, which exports to Chrome trace_event JSON (chrome.go) so runs
// open directly in Perfetto or chrome://tracing with one track per
// rank — collective skew and barrier waits become visible as staggered
// span starts across tracks.
//
// All Tracer methods are nil-receiver safe: a nil *Tracer records
// nothing, and a zero Span's End is a no-op, so call sites need no
// enabled-checks and a disabled run never touches a ring buffer.
package trace

import (
	"sort"
	"sync/atomic"
	"time"
)

// Standard event categories used across the repo. Categories group
// spans for filtering in trace viewers; they carry no semantics here.
const (
	// CatMPI marks collective operations recorded by internal/mpi.
	CatMPI = "mpi"
	// CatPhase marks iteration phases (MM, Gram, NLS, …).
	CatPhase = "phase"
	// CatIter marks whole alternating iterations.
	CatIter = "iter"
	// CatRequest marks request-scoped root spans (one HTTP request,
	// one fit job) that parent the work they trigger across tracks.
	CatRequest = "request"
	// CatKernel marks compute-kernel spans (the innermost level of the
	// request → batch → solve → kernel causal chain).
	CatKernel = "kernel"
)

// spanSeq hands out process-unique span identifiers. A single shared
// counter (one uncontended atomic add per Begin — noise next to the
// two clock reads a span already costs) keeps IDs unique across every
// tracer and session in the process, so spans recorded on different
// tracks can reference each other as parents without coordination.
var spanSeq atomic.Uint64

// nextSpanID returns a fresh nonzero span ID.
func nextSpanID() uint64 { return spanSeq.Add(1) }

// DefaultCapacity is the per-rank ring-buffer size used when a
// session is created with capacity ≤ 0.
const DefaultCapacity = 1 << 16

// Event is one completed span on one rank's track. Start is measured
// from the session epoch so events from different ranks share a
// timeline.
type Event struct {
	Rank    int
	Cat     string
	Name    string
	ArgName string // optional payload label ("words", "iter"); "" if unused
	Arg     int64
	Start   time.Duration
	Dur     time.Duration
	// Span identity: ID is this span's process-unique identifier,
	// Parent the span it is causally nested under (0 = none), and
	// TraceID the request-scoped trace it belongs to (0 = untraced
	// background work). Parents may live on other ranks' tracks.
	TraceID uint64
	ID      uint64
	Parent  uint64
}

// Tracer records events for a single rank. It must only be used from
// that rank's goroutine.
type Tracer struct {
	epoch time.Time
	rank  int
	buf   []Event
	next  int        // next ring slot to overwrite
	total int64      // events ever recorded (total - min(total, len(buf)) were dropped)
	stack []openSpan // open (pushed) spans, innermost last
}

// openSpan is one stack entry: the span's ID plus the trace it belongs
// to, so implicit children inherit the trace ID even when their parent
// was begun under an explicit cross-track span context.
type openSpan struct{ id, traceID uint64 }

// Span is an in-flight event; call End to record it. The zero Span is
// valid and End on it is a no-op.
type Span struct {
	t       *Tracer
	cat     string
	name    string
	argName string
	arg     int64
	start   time.Duration
	id      uint64
	parent  uint64
	traceID uint64
}

// Context returns the span's identity for cross-goroutine or
// cross-rank propagation (e.g. via ContextWith). Zero for spans from
// a nil tracer.
func (s Span) Context() SpanContext {
	return SpanContext{TraceID: s.traceID, SpanID: s.id}
}

// begin is the common span constructor: parent defaults to the
// innermost open span, else none; the new span joins the open stack.
func (t *Tracer) begin(cat, name, argName string, arg int64, parent SpanContext, explicit bool) Span {
	if t == nil {
		return Span{}
	}
	s := Span{t: t, cat: cat, name: name, argName: argName, arg: arg, start: time.Since(t.epoch)}
	if explicit {
		s.parent, s.traceID = parent.SpanID, parent.TraceID
	} else if n := len(t.stack); n > 0 {
		s.parent, s.traceID = t.stack[n-1].id, t.stack[n-1].traceID
	}
	s.id = nextSpanID()
	t.stack = append(t.stack, openSpan{id: s.id, traceID: s.traceID})
	return s
}

// Begin opens a span with the given category and name.
func (t *Tracer) Begin(cat, name string) Span {
	return t.begin(cat, name, "", 0, SpanContext{}, false)
}

// BeginArg opens a span carrying one named integer payload, e.g.
// ("mpi", "AllGather", "words", 4096).
func (t *Tracer) BeginArg(cat, name, argName string, arg int64) Span {
	return t.begin(cat, name, argName, arg, SpanContext{}, false)
}

// BeginChildArg opens a span under an explicit parent (typically a
// span context carried across goroutines or ranks) instead of the
// tracer's own open stack, carrying one named integer payload; an
// empty argName carries none.
func (t *Tracer) BeginChildArg(parent SpanContext, cat, name, argName string, arg int64) Span {
	return t.begin(cat, name, argName, arg, parent, true)
}

// End records the span into its tracer's ring buffer. Safe on the
// zero Span (records nothing).
func (s Span) End() {
	t := s.t
	if t == nil {
		return
	}
	// Pop this span from the open stack. It is almost always the top;
	// the search handles mismatched End ordering gracefully.
	for i := len(t.stack) - 1; i >= 0; i-- {
		if t.stack[i].id == s.id {
			t.stack = append(t.stack[:i], t.stack[i+1:]...)
			break
		}
	}
	t.buf[t.next] = Event{
		Rank:    t.rank,
		Cat:     s.cat,
		Name:    s.name,
		ArgName: s.argName,
		Arg:     s.arg,
		Start:   s.start,
		Dur:     time.Since(t.epoch) - s.start,
		TraceID: s.traceID,
		ID:      s.id,
		Parent:  s.parent,
	}
	t.next++
	if t.next == len(t.buf) {
		t.next = 0
	}
	t.total++
}

// events returns the retained events in recording order.
func (t *Tracer) events() []Event {
	kept := min(t.total, int64(len(t.buf)))
	out := make([]Event, 0, kept)
	// Oldest retained event sits at next when the ring has wrapped.
	if t.total > int64(len(t.buf)) {
		out = append(out, t.buf[t.next:]...)
		out = append(out, t.buf[:t.next]...)
		return out
	}
	return append(out, t.buf[:t.next]...)
}

// Session owns one tracer per rank, all sharing an epoch so their
// events merge onto a common timeline.
type Session struct {
	epoch   time.Time
	tracers []*Tracer
}

// NewSession creates a session for the given number of ranks with the
// given per-rank ring capacity (≤ 0 selects DefaultCapacity).
func NewSession(ranks, capacity int) *Session {
	if ranks < 1 {
		panic("trace: session needs at least one rank")
	}
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	s := &Session{epoch: time.Now(), tracers: make([]*Tracer, ranks)}
	for r := range s.tracers {
		s.tracers[r] = &Tracer{epoch: s.epoch, rank: r, buf: make([]Event, capacity)}
	}
	return s
}

// Ranks returns the number of rank tracks in the session.
func (s *Session) Ranks() int { return len(s.tracers) }

// Tracer returns the tracer owned by the given rank.
func (s *Session) Tracer(rank int) *Tracer { return s.tracers[rank] }

// Trace is the merged, export-ready view of a session: every rank's
// retained events on a shared timeline, sorted by start time.
type Trace struct {
	Ranks   int
	Dropped int64 // events lost to ring overwrites, summed over ranks
	Events  []Event
}

// Merge collects all ranks' events into a Trace. Call only after the
// traced run has finished (rank goroutines must have stopped).
func (s *Session) Merge() *Trace {
	tr := &Trace{Ranks: len(s.tracers)}
	for _, t := range s.tracers {
		evs := t.events()
		tr.Dropped += t.total - int64(len(evs))
		tr.Events = append(tr.Events, evs...)
	}
	sort.SliceStable(tr.Events, func(i, j int) bool {
		a, b := tr.Events[i], tr.Events[j]
		if a.Start != b.Start {
			return a.Start < b.Start
		}
		return a.Rank < b.Rank
	})
	return tr
}
