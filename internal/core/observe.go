package core

import (
	"time"

	"hpcnmf/internal/metrics"
	"hpcnmf/internal/nnls"
	"hpcnmf/internal/perf"
	"hpcnmf/internal/trace"
)

// phaseClock couples the perf tracker with the event tracer so one
// Start/Stop pair feeds both the aggregate task breakdown and the
// per-rank trace. Both phaseClock and phaseSpan are plain values:
// unlike the closure-returning perf.Tracker.Go, timing a phase
// performs no heap allocation, which the steady-state iteration loops
// rely on.
type phaseClock struct {
	tr *perf.Tracker
	tc *trace.Tracer // nil when tracing is off
}

// phaseSpan is one in-flight phase measurement; pass it back to Stop.
type phaseSpan struct {
	task  perf.Task
	start time.Time
	sp    trace.Span // zero (no-op) when tracing is off
}

// Start begins timing a phase on both instruments.
func (p phaseClock) Start(task perf.Task) phaseSpan {
	var sp trace.Span
	if p.tc != nil {
		sp = p.tc.Begin(trace.CatPhase, task.String())
	}
	return phaseSpan{task: task, start: time.Now(), sp: sp}
}

// Stop records the elapsed phase time.
func (p phaseClock) Stop(ps phaseSpan) {
	p.tr.Add(ps.task, time.Since(ps.start))
	ps.sp.End()
}

// runMetrics caches the registry instruments the iteration loops
// touch, so the hot path pays one nil check instead of a registry
// lookup. The zero value (metrics off) makes every method a no-op.
type runMetrics struct {
	nlsInner, nlsGroups, nlsColumnRounds *metrics.Counter
	iterations, relErr                   *metrics.Gauge
}

// newRunMetrics resolves the iteration-loop instruments; reg may be
// nil.
func newRunMetrics(reg *metrics.Registry) runMetrics {
	if reg == nil {
		return runMetrics{}
	}
	return runMetrics{
		nlsInner:        reg.Counter("nmf.nls.inner_iterations"),
		nlsGroups:       reg.Counter("nmf.nls.groups"),
		nlsColumnRounds: reg.Counter("nmf.nls.column_rounds"),
		iterations:      reg.Gauge("nmf.iterations"),
		relErr:          reg.Gauge("nmf.rel_err"),
	}
}

// ObserveNLS charges one local solve's inner-iteration count and, for
// BPP, how its grouped solves looked: column_rounds ÷ groups is the
// columns sharing a factorization, column_rounds ÷ the columns solved
// the pivoting rounds a column takes.
func (m runMetrics) ObserveNLS(st nnls.Stats) {
	if m.nlsInner != nil {
		m.nlsInner.Add(int64(st.Iterations))
		m.nlsGroups.Add(int64(st.Groups))
		m.nlsColumnRounds.Add(int64(st.ColumnRounds))
	}
}

// ObserveRelErr publishes the freshest relative error (call from one
// rank only to avoid p identical writes).
func (m runMetrics) ObserveRelErr(e float64) {
	if m.relErr != nil {
		m.relErr.Set(e)
	}
}

// ObserveIterations publishes the final iteration count.
func (m runMetrics) ObserveIterations(iters int) {
	if m.iterations != nil {
		m.iterations.Set(float64(iters))
	}
}

// newTraceSession creates the run's trace session when enabled, or
// returns nil. When the options carry a request span context every
// rank tracer is rooted under it, so the run's iteration and
// collective spans join the caller's causal chain.
func newTraceSession(opts Options, ranks int) *trace.Session {
	if !opts.TraceEvents {
		return nil
	}
	s := trace.NewSession(ranks, opts.TraceCapacity)
	if opts.Span.Valid() {
		s.SetRoot(opts.Span)
	}
	return s
}

// Progress is one iteration's convergence-telemetry record: how far
// the run is, how good the factorization is, and where the iteration's
// time went. Drivers emit one per alternating iteration through
// Options.Progress and collect the series into Result.Progress.
type Progress struct {
	// Iter is the 1-based iteration count after this iteration.
	Iter int `json:"iter"`
	// RelErr is ‖A−WH‖_F/‖A‖_F after the iteration; omitted when the
	// run does not compute the objective.
	RelErr float64 `json:"rel_err,omitempty"`
	// ElapsedSeconds is wall time since the iteration loop started.
	ElapsedSeconds float64 `json:"elapsed_seconds"`
	// PhaseSeconds is this iteration's wall time by task (MM, Gram,
	// NLS, collectives) as measured on the reporting rank (rank 0 for
	// the parallel drivers). Zero-time tasks are omitted.
	PhaseSeconds map[string]float64 `json:"phase_seconds,omitempty"`
}

// progressEmitter turns the reporting rank's cumulative perf.Tracker
// into per-iteration Progress records. A nil emitter (progress off) is
// a no-op, so the run loop pays one nil check per iteration and the
// zero-allocation steady state is untouched when disabled.
type progressEmitter struct {
	fn      func(Progress)
	tr      *perf.Tracker
	start   time.Time
	prev    map[perf.Task]time.Duration
	history []Progress
}

// newProgressEmitter returns nil when fn is nil.
func newProgressEmitter(fn func(Progress), tr *perf.Tracker) *progressEmitter {
	if fn == nil {
		return nil
	}
	return &progressEmitter{fn: fn, tr: tr, start: time.Now(), prev: map[perf.Task]time.Duration{}}
}

// emit publishes the record for the iteration that just finished.
// iters is the 1-based count; relErr the history so far (possibly
// empty).
func (p *progressEmitter) emit(iters int, relErr []float64) {
	if p == nil {
		return
	}
	pr := Progress{Iter: iters, ElapsedSeconds: time.Since(p.start).Seconds()}
	if len(relErr) > 0 {
		pr.RelErr = relErr[len(relErr)-1]
	}
	for _, task := range perf.Tasks() {
		w := p.tr.Wall(task)
		if d := w - p.prev[task]; d > 0 {
			if pr.PhaseSeconds == nil {
				pr.PhaseSeconds = make(map[string]float64, 4)
			}
			pr.PhaseSeconds[task.String()] = d.Seconds()
		}
		p.prev[task] = w
	}
	p.history = append(p.history, pr)
	p.fn(pr)
}

// collected returns the full series (nil for a nil emitter).
func (p *progressEmitter) collected() []Progress {
	if p == nil {
		return nil
	}
	return p.history
}
