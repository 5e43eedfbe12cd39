package core

import (
	"time"

	"hpcnmf/internal/metrics"
	"hpcnmf/internal/nnls"
	"hpcnmf/internal/perf"
	"hpcnmf/internal/trace"
)

// rankBooks is a rank's one accounting instrument: the ledger every
// phase is charged to (and, through it, the trace) and the registry
// instruments the rank publishes to. newRankBooks resolves the
// instruments once per run, so the hot path pays no registry lookup;
// each rank works on its own copy with its own ledger.
type rankBooks struct {
	*perf.Ledger             // set per rank, by newRankState
	flushed      perf.Ledger // the ledger as the registry last saw it

	nlsInner, nlsGroups, nlsColumnRounds *metrics.Counter
	iterations, relErr                   *metrics.Gauge
	// The live task breakdown, summed over ranks: one pair of counters
	// per perf.Tasks() entry, in that order, and the step wall.
	taskNs, taskFlops []*metrics.Counter
	stepNs            *metrics.Counter
}

// newRankBooks resolves the instruments in reg. A run without a
// registry publishes to one nobody reads, so accounting is one path.
func newRankBooks(reg *metrics.Registry) rankBooks {
	if reg == nil {
		reg = metrics.NewRegistry()
	}
	b := rankBooks{
		nlsInner:        reg.Counter("nmf.nls.inner_iterations"),
		nlsGroups:       reg.Counter("nmf.nls.groups"),
		nlsColumnRounds: reg.Counter("nmf.nls.column_rounds"),
		iterations:      reg.Gauge("nmf.iterations"),
		relErr:          reg.Gauge("nmf.rel_err"),
		stepNs:          reg.Counter("nmf.step.ns"),
	}
	for _, task := range perf.Tasks() {
		b.taskNs = append(b.taskNs, reg.Counter("nmf.task."+task.String()+".ns"))
		b.taskFlops = append(b.taskFlops, reg.Counter("nmf.task."+task.String()+".flops"))
	}
	return b
}

// flush adds what the ledger gained since the last flush to the live
// counters. Ranks flush independently, once per step.
func (b *rankBooks) flush() {
	d := b.Sub(b.flushed)
	b.flushed = *b.Ledger
	for i, task := range perf.Tasks() {
		b.taskNs[i].Add(int64(d.Wall[task]))
		b.taskFlops[i].Add(d.Flops[task])
	}
	b.stepNs.Add(int64(d.Step))
}

// observeNLS charges one local solve's inner-iteration count and, for
// BPP, how its grouped solves looked: column_rounds ÷ groups is the
// columns sharing a factorization, column_rounds ÷ the columns solved
// the pivoting rounds a column takes.
func (b *rankBooks) observeNLS(st nnls.Stats) {
	b.nlsInner.Add(int64(st.Iterations))
	b.nlsGroups.Add(int64(st.Groups))
	b.nlsColumnRounds.Add(int64(st.ColumnRounds))
}

// newTraceSession creates the run's trace session when enabled, or
// returns nil.
func newTraceSession(opts Options, ranks int) *trace.Session {
	if !opts.TraceEvents {
		return nil
	}
	return trace.NewSession(ranks, trace.DefaultCapacity)
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

// progressEmitter turns the reporting rank's cumulative ledger into
// per-iteration Progress records. A nil emitter (progress off) is a
// no-op, so the run loop pays one nil check per iteration and the
// zero-allocation steady state is untouched when disabled.
type progressEmitter struct {
	fn      func(Progress)
	led     *perf.Ledger
	start   time.Time
	prev    perf.Ledger // led as of the previous record
	history []Progress
}

// newProgressEmitter returns nil when fn is nil.
func newProgressEmitter(fn func(Progress), led *perf.Ledger) *progressEmitter {
	if fn == nil {
		return nil
	}
	return &progressEmitter{fn: fn, led: led, start: time.Now(), prev: *led}
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
	d := p.led.Sub(p.prev)
	p.prev = *p.led
	for _, task := range perf.Tasks() {
		if w := d.Wall[task]; w > 0 {
			if pr.PhaseSeconds == nil {
				pr.PhaseSeconds = make(map[string]float64, 4)
			}
			pr.PhaseSeconds[task.String()] = w.Seconds()
		}
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
