package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"strconv"
	"strings"
	"sync"
	"time"

	"hpcnmf/internal/core"
	"hpcnmf/internal/mat"
	"hpcnmf/internal/metrics"
	"hpcnmf/internal/obs"
	mstore "hpcnmf/internal/store"
	"hpcnmf/internal/trace"
)

// errRehydrating is returned for requests against a model that another
// request is currently faulting in from the durable store; mapped to
// 503 + Retry-After — the model exists and will be servable shortly,
// which is exactly not a 404.
var errRehydrating = errors.New("serve: model is rehydrating from the durable store")

// Options configures a serving instance. The zero value serves with
// the defaults noted on each field.
type Options struct {
	// MaxBatch caps how many columns one stacked NNLS solve takes
	// (default 32).
	MaxBatch int
	// QueueCap bounds each model's pending projection queue; beyond it
	// submits are rejected with 429 (default 4·MaxBatch).
	QueueCap int
	// StoreBudget bounds resident model bytes; least-recently-used
	// models are evicted past it (default 256 MiB; < 0 disables).
	StoreBudget int64
	// FitWorkers is the async fit worker-pool size (default 2).
	FitWorkers int
	// FitQueue bounds the pending fit-job queue; beyond it fits are
	// rejected with 429 + Retry-After (default 8).
	FitQueue int
	// ProjectSolver selects the NNLS method for the projection path
	// (default BPP — exact; the inexact sweep solvers make the
	// steady-state serve path allocation-free).
	ProjectSolver core.SolverKind
	// ProjectSweeps is the inner sweep count for inexact projection
	// solvers (default 8 — projections are one-shot, so they need more
	// sweeps than an ANLS iteration that revisits every column).
	ProjectSweeps int
	// TraceEvents arms request-scoped tracing: every HTTP projection
	// request opens a span that parents its batch, stacked solve, and
	// compute kernels across the per-model batcher tracks, honoring an
	// incoming X-Trace-Id header and echoing the request's span context
	// back in the response. Read the merged timeline with Trace after
	// Close.
	TraceEvents bool
	// Pprof mounts net/http/pprof under /debug/pprof/ for continuous
	// profiling of a live serving process.
	Pprof bool
	// Logger receives structured operational logs (fits, failures,
	// shutdown); nil discards them.
	Logger *slog.Logger
	// Durable is the persistence seam behind the resident LRU: every
	// committed fit is written through to it before the job reports
	// done, evicted models fault back in on the next projection, and a
	// cold instance warm-starts by scanning it. Nil (the default)
	// serves memory-only — eviction then loses the model, loudly.
	Durable mstore.ModelStore
	// WarmFilter restricts the warm-start scan: only ids it accepts
	// are preloaded (nil preloads everything, one that refuses every id
	// nothing). The cluster layer uses it so each shard warms only the
	// models it replicates; filtered models still fault in on demand
	// if a request reaches us anyway.
	WarmFilter func(id string) bool
	// OnCommit, when set, runs after every durable model commit,
	// outside the store locks. The cluster layer hangs replica fan-out
	// on it.
	OnCommit func(id string)
	// OnDelete runs after every model deletion, outside the store
	// locks; the cluster layer fans out replica eviction.
	OnDelete func(id string)
}

func (o Options) withDefaults() Options {
	if o.MaxBatch <= 0 {
		o.MaxBatch = 32
	}
	if o.QueueCap <= 0 {
		o.QueueCap = 4 * o.MaxBatch
	}
	if o.StoreBudget == 0 {
		o.StoreBudget = 256 << 20
	}
	if o.FitWorkers <= 0 {
		o.FitWorkers = 2
	}
	if o.FitQueue <= 0 {
		o.FitQueue = 8
	}
	if o.ProjectSweeps <= 0 {
		o.ProjectSweeps = 8
	}
	return o
}

// serveMetrics caches the registry instruments the serving hot path
// touches, so a request pays atomic increments, not registry lookups.
type serveMetrics struct {
	requests       *metrics.Counter
	rejected       *metrics.Counter
	projectErrors  *metrics.Counter
	batches        *metrics.Counter
	solves         *metrics.Counter
	batchCols      *metrics.Histogram
	batchLatency   *metrics.Histogram
	requestLatency *metrics.Histogram
	fitAccepted    *metrics.Counter
	fitRejected    *metrics.Counter
	fitCompleted   *metrics.Counter
	fitFailed      *metrics.Counter
	fitQueueDepth  *metrics.Gauge
	storeModels    *metrics.Gauge
	storeBytes     *metrics.Gauge
	storeEvictions *metrics.Counter

	// Durable-store traffic.
	storeEvictionsUndurable *metrics.Counter
	storeCommits            *metrics.Counter
	storeCommitErrors       *metrics.Counter
	storeRehydrations       *metrics.Counter
	storeRehydrateErrors    *metrics.Counter
	storeWarmStarts         *metrics.Counter
}

func newServeMetrics(reg *metrics.Registry) *serveMetrics {
	return &serveMetrics{
		requests:       reg.Counter("serve.project.requests"),
		rejected:       reg.Counter("serve.project.rejected"),
		projectErrors:  reg.Counter("serve.project.errors"),
		batches:        reg.Counter("serve.project.batches"),
		solves:         reg.Counter("serve.project.solves"),
		batchCols:      reg.Histogram("serve.project.batch_columns"),
		batchLatency:   reg.Histogram("serve.project.batch_seconds"),
		requestLatency: reg.Histogram("serve.project.request_seconds"),
		fitAccepted:    reg.Counter("serve.fit.accepted"),
		fitRejected:    reg.Counter("serve.fit.rejected"),
		fitCompleted:   reg.Counter("serve.fit.completed"),
		fitFailed:      reg.Counter("serve.fit.failed"),
		fitQueueDepth:  reg.Gauge("serve.fit.queue_depth"),
		storeModels:    reg.Gauge("serve.store.models"),
		storeBytes:     reg.Gauge("serve.store.bytes"),
		storeEvictions: reg.Counter("serve.store.evictions"),

		storeEvictionsUndurable: reg.Counter("serve.store.evictions_undurable"),
		storeCommits:            reg.Counter("serve.store.commits"),
		storeCommitErrors:       reg.Counter("serve.store.commit_errors"),
		storeRehydrations:       reg.Counter("serve.store.rehydrations"),
		storeRehydrateErrors:    reg.Counter("serve.store.rehydrate_errors"),
		storeWarmStarts:         reg.Counter("serve.store.warm_starts"),
	}
}

// Server is the batched-projection serving layer: an http.Handler plus
// the model store, per-model batching loops, and the async fit pool
// behind it. Create with New, serve via ServeHTTP, stop with Close
// (which drains in-flight batches and accepted fit jobs).
type Server struct {
	opts Options
	reg  *metrics.Registry
	met  *serveMetrics
	st   *store
	jobs *jobs
	mux  *http.ServeMux
	log  *slog.Logger

	traceMu  sync.Mutex
	sessions []*trace.Session

	// reqTC records request-root spans. HTTP handler goroutines are
	// concurrent, and a Tracer is single-owner, so every touch takes
	// reqMu — two short critical sections per request, only when
	// tracing is armed.
	reqMu sync.Mutex
	reqTC *trace.Tracer

	closeOnce sync.Once
}

// New builds a serving instance.
func New(opts Options) *Server {
	opts = opts.withDefaults()
	reg := metrics.NewRegistry() // exposed at /metrics
	log := opts.Logger
	if log == nil {
		log = obs.Nop()
	}
	s := &Server{opts: opts, reg: reg, met: newServeMetrics(reg), log: log.With(obs.KeyComponent, "serve")}
	if opts.TraceEvents {
		sess := trace.NewSession(1, trace.DefaultCapacity)
		s.reqTC = sess.Tracer(0)
		s.sessions = append(s.sessions, sess)
	}
	s.st = newStore(opts.StoreBudget, s.met, s.log)
	s.jobs = newJobs(opts.FitWorkers, opts.FitQueue, s.met, s.log, s.runFit)
	if opts.Durable != nil {
		s.warmStart()
	}
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("POST /v1/fit", s.handleFit)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.handleJob)
	s.mux.HandleFunc("GET /v1/jobs/{id}/progress", s.handleJobProgress)
	s.mux.HandleFunc("POST /v1/project", s.handleProject)
	s.mux.HandleFunc("GET /v1/models", s.handleModels)
	s.mux.HandleFunc("DELETE /v1/models/{id}", s.handleDeleteModel)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	if opts.Pprof {
		s.mux.HandleFunc("GET /debug/pprof/", pprof.Index)
		s.mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
		s.mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
		s.mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
		s.mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	}
	s.log.Debug("serving layer ready",
		"max_batch", opts.MaxBatch, "fit_workers", opts.FitWorkers,
		"tracing", opts.TraceEvents, "pprof", opts.Pprof)
	return s
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// Metrics returns the registry backing /metrics.
func (s *Server) Metrics() *metrics.Registry { return s.reg }

// Close shuts the serving layer down gracefully: the fit workers drain
// every accepted job, then every model batcher drains its pending
// projections — requests accepted before Close are answered, never
// dropped. The HTTP listener (owned by the caller) should stop
// accepting first.
func (s *Server) Close() {
	s.closeOnce.Do(func() {
		s.jobs.close()
		s.st.closeAll()
		s.log.Debug("serving layer drained and closed")
	})
}

// Trace merges every recorded track — the request-root track plus one
// per model batcher — onto distinct ranks of one timeline. Request
// spans parent batch spans across tracks via explicit span contexts,
// so the merged trace shows each request's full causal chain. Call
// after Close; nil when TraceEvents was off.
func (s *Server) Trace() *trace.Trace {
	s.traceMu.Lock()
	defer s.traceMu.Unlock()
	if len(s.sessions) == 0 {
		return nil
	}
	merged := &trace.Trace{}
	for _, sess := range s.sessions {
		t := sess.Merge()
		// Offset onto the next free track; Merge copies, so this stays
		// idempotent across repeated Trace calls.
		for i := range t.Events {
			t.Events[i].Rank += merged.Ranks
		}
		merged.Ranks += t.Ranks
		merged.Dropped += t.Dropped
		merged.Events = append(merged.Events, t.Events...)
	}
	return merged
}

// commit writes the model through to the durable store (when one is
// configured) and marks it durable. A model is only ever announced —
// job done, 2xx response — after commit returns nil, so "committed"
// and "crash-safe" are the same event.
func (s *Server) commit(m *model) error {
	if s.opts.Durable == nil {
		return nil
	}
	err := s.opts.Durable.Put(&mstore.Model{
		ID:         m.id,
		W:          m.w,
		Fitted:     m.fitted,
		RelErr:     m.relErr,
		Iterations: m.iterations,
	})
	if err != nil {
		s.met.storeCommitErrors.Inc()
		return fmt.Errorf("serve: committing model %q to the durable store: %w", m.id, err)
	}
	m.durable = true
	s.met.storeCommits.Inc()
	return nil
}

// notifyCommit runs the commit hook outside all store locks.
func (s *Server) notifyCommit(id string) {
	if s.opts.OnCommit != nil && s.opts.Durable != nil {
		s.opts.OnCommit(id)
	}
}

// warmStart scans the durable store and preloads every committed
// model the WarmFilter accepts, so a restarted instance serves its
// catalog immediately instead of faulting models in one 503 at a
// time. Corrupt entries are quarantined by the store and skipped —
// a rotten blob must not keep an instance from booting.
func (s *Server) warmStart() {
	ids, err := s.opts.Durable.List()
	if err != nil {
		s.log.Warn("warm-start: listing durable store failed", "err", err)
		return
	}
	loaded := 0
	for _, id := range ids {
		if s.opts.WarmFilter != nil && !s.opts.WarmFilter(id) {
			continue
		}
		if err := s.loadFromDurable(id); err != nil {
			s.log.Warn("warm-start: skipping model", "model", id, "err", err)
			continue
		}
		loaded++
	}
	s.met.storeWarmStarts.Add(int64(loaded))
	if loaded > 0 || len(ids) > 0 {
		s.log.Info("warm-started from durable store", "loaded", loaded, "committed", len(ids))
	}
}

// loadFromDurable fetches one committed model and installs it
// resident (already marked durable — it came from the store).
func (s *Server) loadFromDurable(id string) error {
	dm, err := s.opts.Durable.Get(id)
	if err != nil {
		return err
	}
	m, err := s.newModel(id, dm.W)
	if err != nil {
		return err
	}
	m.durable = true
	m.fitted = dm.Fitted
	m.relErr = dm.RelErr
	m.iterations = dm.Iterations
	if err := s.st.add(m); err != nil {
		m.bat.close()
		return err
	}
	return nil
}

// Rehydrate faults a model in from the durable store, replacing any
// resident copy — the receiving end of the cluster's commit fan-out,
// where a fresher committed version must displace the cached one.
func (s *Server) Rehydrate(id string) error {
	if s.opts.Durable == nil {
		return fmt.Errorf("serve: no durable store configured")
	}
	if err := s.loadFromDurable(id); err != nil {
		return err
	}
	s.met.storeRehydrations.Inc()
	return nil
}

// Evict drops a model's resident copy without touching the durable
// store; reports whether it was resident. The receiving end of the
// cluster's delete fan-out.
func (s *Server) Evict(id string) bool { return s.st.remove(id) }

// Models lists the resident models.
func (s *Server) Models() []ModelInfo { return s.st.list() }

// rehydrateMiss handles a projection miss when a durable store is
// configured: claim the id, fault it in, and let the caller retry the
// submit. Exactly one request pays the load; concurrent ones see
// errRehydrating (503), and ids absent from the store stay 404.
func (s *Server) rehydrateMiss(id string) error {
	claimed, err := s.st.beginRehydrate(id)
	if err != nil {
		return err // errRehydrating or store shut down
	}
	if !claimed {
		return nil // raced back into residency — just retry
	}
	defer s.st.endRehydrate(id)
	if err := s.loadFromDurable(id); err != nil {
		if errors.Is(err, mstore.ErrNotFound) {
			return notFoundError{id}
		}
		s.met.storeRehydrateErrors.Inc()
		var ce *mstore.CorruptError
		if errors.As(err, &ce) {
			// The entry existed but was rotten; the store quarantined
			// it. The model is gone — a 404 plus a loud log is honest.
			s.log.Error("durable model entry corrupt — quarantined", "model", id, "err", err)
			return notFoundError{id}
		}
		return fmt.Errorf("serve: rehydrating model %q: %w", id, err)
	}
	s.met.storeRehydrations.Inc()
	s.log.Info("model rehydrated from durable store", "model", id)
	return nil
}

// submitWithRehydrate runs the store submit, faulting the model in
// from the durable backing on a miss and retrying once.
func (s *Server) submitWithRehydrate(id string, fn func(*model) error) error {
	err := s.st.withModel(id, fn)
	if s.opts.Durable == nil || !errors.Is(err, notFoundError{id}) {
		return err
	}
	if rerr := s.rehydrateMiss(id); rerr != nil {
		return rerr
	}
	return s.st.withModel(id, fn)
}

// newModel wraps a basis in a model with a running batcher.
func (s *Server) newModel(id string, w *mat.Dense) (*model, error) {
	solver := s.opts.ProjectSolver.New(s.opts.ProjectSweeps)
	proj, err := core.NewProjector(w, solver, nil)
	if err != nil {
		return nil, err
	}
	var tc *trace.Tracer
	if s.opts.TraceEvents {
		sess := trace.NewSession(1, trace.DefaultCapacity)
		tc = sess.Tracer(0)
		// The batcher goroutine owns both the tracer and the projector,
		// so the projector's kernel spans (WᵀC multiply, NNLS) nest
		// under the batcher's solve span on the same track.
		proj.SetTracer(tc)
		s.traceMu.Lock()
		s.sessions = append(s.sessions, sess)
		s.traceMu.Unlock()
	}
	bat := newBatcher(proj, s.opts.MaxBatch, s.opts.QueueCap, s.met, tc)
	go bat.loop()
	return &model{id: id, w: w, bytes: modelBytes(w.Rows, w.Cols, s.opts.MaxBatch), bat: bat}, nil
}

// project runs loaded carriers through the model's batching loop: all
// are submitted atomically (they coalesce into the same batch, and a
// full queue rejects the whole request rather than half of it), then
// awaited. On success each carrier holds its coefficients in h and its
// relative residual in resid, and the caller putReqs them after copying
// those out; on failure they are already back in the pool. A span
// context on ctx (trace.ContextWith) rides the carriers into the
// batcher, which parents its batch span under it. This is the whole
// per-request steady-state path — one atomic submit, one channel round
// trip per column — and it allocates nothing once warm.
func (s *Server) project(ctx context.Context, modelID string, reqs ...*projReq) error {
	start := time.Now()
	s.met.requests.Add(int64(len(reqs)))
	sc := trace.FromContext(ctx)
	for _, r := range reqs {
		r.sc = sc
	}
	err := s.submitWithRehydrate(modelID, func(m *model) error {
		for _, r := range reqs {
			if len(r.col) != m.w.Rows {
				return &shapeError{got: len(r.col), want: m.w.Rows}
			}
		}
		return m.bat.submit(reqs...)
	})
	if errors.Is(err, errBusy) {
		s.met.rejected.Add(int64(len(reqs)))
	}
	if err == nil {
		for _, r := range reqs {
			<-r.done
			if r.err != nil && err == nil {
				err = r.err
			}
		}
	}
	if err != nil {
		for _, r := range reqs {
			putReq(r)
		}
		return err
	}
	s.met.requestLatency.Observe(time.Since(start).Seconds())
	return nil
}

// shapeError reports a column/basis dimension mismatch (HTTP 400).
type shapeError struct{ got, want int }

func (e *shapeError) Error() string {
	return fmt.Sprintf("serve: column has %d rows, model expects %d", e.got, e.want)
}

// runFit executes one fit job: factorize the submitted matrix with the
// sequential driver and install the resulting basis as a servable
// model.
func (s *Server) runFit(j *fitJob) (float64, int, error) {
	spec := j.spec
	// The drivers only read A, so the request's buffer is the matrix.
	a := &mat.Dense{Rows: spec.Rows, Cols: spec.Cols, Data: spec.Data}
	kind, err := solverKind(spec.Solver)
	if err != nil {
		return 0, 0, err
	}
	opts := core.Options{
		K:            spec.K,
		MaxIter:      spec.MaxIter,
		Solver:       kind,
		Sweeps:       spec.Sweeps,
		Seed:         spec.Seed,
		Tol:          spec.Tol,
		ComputeError: true,
		// Stream per-iteration telemetry into the job record so
		// GET /v1/jobs/{id}/progress can serve it live.
		Progress: j.addProgress,
		// The fit's task breakdown moves on /metrics while it runs.
		Metrics: s.reg,
	}
	res, err := core.RunSequential(core.WrapDense(a), opts)
	if err != nil {
		return 0, 0, err
	}
	m, err := s.newModel(spec.Model, res.W)
	if err != nil {
		return 0, 0, err
	}
	m.fitted = time.Now()
	m.iterations = res.Iterations
	if len(res.RelErr) > 0 {
		m.relErr = res.RelErr[len(res.RelErr)-1]
	}
	// Durable commit before the job can report done: a fit the client
	// was told succeeded must survive a crash of this process.
	if err := s.commit(m); err != nil {
		m.bat.close()
		return 0, 0, err
	}
	if err := s.st.add(m); err != nil {
		m.bat.close()
		return 0, 0, err
	}
	s.notifyCommit(m.id)
	return m.relErr, res.Iterations, nil
}

// solverKind parses the wire solver name: core.ParseSolver, with an
// omitted name selecting BPP.
func solverKind(name string) (core.SolverKind, error) {
	if name == "" {
		return core.SolverBPP, nil
	}
	return core.ParseSolver(name)
}

// FitRequest is the POST /v1/fit body: a dense matrix (row-major) and
// the factorization parameters.
type FitRequest struct {
	Model   string    `json:"model"`
	Rows    int       `json:"rows"`
	Cols    int       `json:"cols"`
	Data    []float64 `json:"data"`
	K       int       `json:"k"`
	MaxIter int       `json:"max_iter,omitempty"`
	Solver  string    `json:"solver,omitempty"`
	Sweeps  int       `json:"sweeps,omitempty"`
	Seed    uint64    `json:"seed,omitempty"`
	Tol     float64   `json:"tol,omitempty"`
}

func (f *FitRequest) validate() error {
	if f.Model == "" {
		return fmt.Errorf("missing model id")
	}
	if f.Rows < 1 || f.Cols < 1 {
		return fmt.Errorf("matrix is %dx%d, want at least 1x1", f.Rows, f.Cols)
	}
	// The division first: rows*cols of a hostile shape can wrap to
	// len(data).
	if f.Cols > len(f.Data)/f.Rows || len(f.Data) != f.Rows*f.Cols {
		return fmt.Errorf("data has %d entries, want rows*cols for a %dx%d matrix", len(f.Data), f.Rows, f.Cols)
	}
	if f.K < 1 || f.K > min(f.Rows, f.Cols) {
		return fmt.Errorf("rank k = %d, want 1 ≤ k ≤ min(rows, cols) = %d", f.K, min(f.Rows, f.Cols))
	}
	if _, err := solverKind(f.Solver); err != nil {
		return err
	}
	return refuseNegative("data", -1, f.Data)
}

// refuseNegative names the first negative entry of v — what[i], or
// what[j][i] for j ≥ 0 — in an error, the one input check /v1/fit and
// /v1/project share: a fit would clamp the entry silently, and either
// would report a converged-looking error against data nobody sent.
// −0.0 passes. (NaN and ±Inf never reach here: the wire decoder
// refuses them.)
func refuseNegative(what string, j int, v []float64) error {
	for i, x := range v {
		if x < 0 {
			if j >= 0 {
				what = fmt.Sprintf("%s[%d]", what, j)
			}
			return fmt.Errorf("%s[%d] = %g is negative; NMF needs A ≥ 0", what, i, x)
		}
	}
	return nil
}

// ProjectRequest is the POST /v1/project body: one column or several.
type ProjectRequest struct {
	Model   string      `json:"model"`
	Column  []float64   `json:"column,omitempty"`
	Columns [][]float64 `json:"columns,omitempty"`
}

// ProjectResponse carries the projected coefficients, one row per
// requested column, plus each column's relative reconstruction
// residual (the foreground signal of the background-subtraction use
// case).
type ProjectResponse struct {
	Model     string      `json:"model"`
	H         [][]float64 `json:"h"`
	Residuals []float64   `json:"residuals"`
}

func (s *Server) handleFit(w http.ResponseWriter, r *http.Request) {
	body, ok := ReadBody(w, r)
	if !ok {
		return
	}
	var req FitRequest
	if err := decodeFit(body, &req); err != nil {
		httpError(w, http.StatusBadRequest, fmt.Errorf("decoding fit request: %w", err))
		return
	}
	if err := req.validate(); err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	id, err := s.jobs.submit(req)
	if err != nil {
		if errors.Is(err, errQueueFull) {
			w.Header().Set("Retry-After", strconv.Itoa(s.jobs.retryAfter()))
			httpError(w, http.StatusTooManyRequests, err)
			return
		}
		httpError(w, http.StatusServiceUnavailable, err)
		return
	}
	w.WriteHeader(http.StatusAccepted)
	writeJSON(w, map[string]string{"job": id, "status_url": "/v1/jobs/" + id})
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	info, ok := s.jobs.get(r.PathValue("id"))
	if !ok {
		httpError(w, http.StatusNotFound, fmt.Errorf("serve: job %q not found", r.PathValue("id")))
		return
	}
	writeJSON(w, info)
}

// handleJobProgress streams a fit job's per-iteration convergence
// telemetry as NDJSON: one core.Progress object per line as iterations
// complete, then one final JobInfo line when the job reaches a
// terminal state. Clients get live convergence curves without polling
// the whole job object.
func (s *Server) handleJobProgress(w http.ResponseWriter, r *http.Request) {
	j, ok := s.jobs.lookup(r.PathValue("id"))
	if !ok {
		httpError(w, http.StatusNotFound, fmt.Errorf("serve: job %q not found", r.PathValue("id")))
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("Cache-Control", "no-cache")
	fl, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	sent := 0
	for {
		recs, state := j.progressSince(sent)
		for _, p := range recs {
			_ = enc.Encode(p)
		}
		sent += len(recs)
		if len(recs) > 0 && fl != nil {
			fl.Flush()
		}
		if state == JobDone || state == JobFailed {
			break
		}
		select {
		case <-r.Context().Done():
			return
		case <-time.After(25 * time.Millisecond):
		}
	}
	_ = enc.Encode(j.info())
	if fl != nil {
		fl.Flush()
	}
}

// beginRequest opens the request-root span when tracing is armed: the
// parent comes from an X-Trace-Id header (format traceID-spanID, both
// hex) so the serving layer joins a caller's existing trace, else a
// fresh trace ID is minted. The returned context carries the span's
// identity down the projection path.
func (s *Server) beginRequest(r *http.Request, name string, cols int64) (trace.Span, trace.SpanContext) {
	if s.reqTC == nil {
		return trace.Span{}, trace.SpanContext{}
	}
	parent, err := trace.ParseSpanContext(r.Header.Get("X-Trace-Id"))
	if err != nil || !parent.Valid() {
		parent = trace.SpanContext{TraceID: trace.NewTraceID()}
	}
	s.reqMu.Lock()
	// Explicit parenting keeps concurrent requests from nesting under
	// each other on the shared request track.
	sp := s.reqTC.BeginChildArg(parent, trace.CatRequest, name, "cols", cols)
	s.reqMu.Unlock()
	return sp, sp.Context()
}

func (s *Server) endRequest(sp trace.Span) {
	if s.reqTC == nil {
		return
	}
	s.reqMu.Lock()
	sp.End()
	s.reqMu.Unlock()
}

func (s *Server) handleProject(w http.ResponseWriter, r *http.Request) {
	body, ok := ReadBody(w, r)
	if !ok {
		return
	}
	var req ProjectRequest
	first := newReq() // "column" is decoded straight into a pooled carrier
	err := decodeProject(body, &req, first.col)
	switch {
	case err != nil:
		err = fmt.Errorf("decoding project request: %w", err)
	case req.Model == "":
		err = fmt.Errorf("missing model id")
	case req.Column == nil && len(req.Columns) == 0:
		err = fmt.Errorf("no columns to project")
	default:
		err = refuseNegative("column", -1, req.Column)
		for j := 0; err == nil && j < len(req.Columns); j++ {
			err = refuseNegative("columns", j, req.Columns[j])
		}
	}
	if err != nil {
		putReq(first)
		httpError(w, http.StatusBadRequest, err)
		return
	}
	reqs := make([]*projReq, 0, 1+len(req.Columns))
	if req.Column != nil {
		first.col = req.Column
		reqs = append(reqs, first)
	} else {
		putReq(first)
	}
	for _, c := range req.Columns {
		reqs = append(reqs, getReq(c))
	}
	sp, sc := s.beginRequest(r, "http.project", int64(len(reqs)))
	ctx := r.Context()
	if sc.Valid() {
		// Echo the request's own span context so the caller can locate
		// its spans in the exported timeline.
		w.Header().Set("X-Trace-Id", sc.String())
		ctx = trace.ContextWith(ctx, sc)
	}
	err = s.project(ctx, req.Model, reqs...)
	s.endRequest(sp)
	if err != nil {
		s.log.Debug("project failed", "model", req.Model, "cols", len(reqs), "err", err)
		switch {
		case errors.Is(err, errBusy):
			w.Header().Set("Retry-After", "1")
			httpError(w, http.StatusTooManyRequests, err)
		case errors.Is(err, errRehydrating):
			// The model exists — it is mid-fault-in from the durable
			// store. Tell the client to come right back, not that the
			// model is gone.
			w.Header().Set("Retry-After", "1")
			httpError(w, http.StatusServiceUnavailable, err)
		case errors.Is(err, errClosing):
			httpError(w, http.StatusServiceUnavailable, err)
		default:
			var nf notFoundError
			var se *shapeError
			switch {
			case errors.As(err, &nf):
				httpError(w, http.StatusNotFound, err)
			case errors.As(err, &se):
				httpError(w, http.StatusBadRequest, err)
			default:
				httpError(w, http.StatusInternalServerError, err)
			}
		}
		return
	}
	resp := ProjectResponse{
		Model:     req.Model,
		H:         make([][]float64, len(reqs)),
		Residuals: make([]float64, len(reqs)),
	}
	for i, pr := range reqs {
		h := make([]float64, len(pr.h))
		copy(h, pr.h)
		resp.H[i] = h
		resp.Residuals[i] = pr.resid
		putReq(pr)
	}
	writeJSON(w, resp)
}

func (s *Server) handleModels(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, map[string]any{"models": s.st.list()})
}

func (s *Server) handleDeleteModel(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	resident := s.st.remove(id)
	committed := false
	if s.opts.Durable != nil {
		switch err := s.opts.Durable.Delete(id); {
		case err == nil:
			committed = true
		case errors.Is(err, mstore.ErrNotFound):
		default:
			httpError(w, http.StatusInternalServerError, fmt.Errorf("serve: deleting %q from durable store: %w", id, err))
			return
		}
	}
	if !resident && !committed {
		httpError(w, http.StatusNotFound, notFoundError{id})
		return
	}
	if s.opts.OnDelete != nil {
		s.opts.OnDelete(id)
	}
	w.WriteHeader(http.StatusNoContent)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

// Exposition content types served by /metrics.
const (
	ctPrometheus  = "text/plain; version=0.0.4; charset=utf-8"
	ctOpenMetrics = "application/openmetrics-text; version=1.0.0; charset=utf-8"
)

// handleMetrics negotiates the exposition format: Prometheus text
// 0.0.4 by default (what a Prometheus scraper expects), OpenMetrics
// when the Accept header asks for it (adds the # EOF terminator), the
// structured JSON snapshot via ?format=json or Accept:
// application/json. Output order is deterministic (families sorted by
// name) in every format.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	format := r.URL.Query().Get("format")
	accept := r.Header.Get("Accept")
	switch {
	case format == "json" || (format == "" && strings.Contains(accept, "application/json")):
		writeJSON(w, s.reg.Snapshot())
	case format == "openmetrics" || (format == "" && strings.Contains(accept, "application/openmetrics-text")):
		w.Header().Set("Content-Type", ctOpenMetrics)
		_ = s.reg.WritePrometheus(w)
		_ = metrics.WriteGoRuntime(w)
		fmt.Fprintln(w, "# EOF")
	default:
		w.Header().Set("Content-Type", ctPrometheus)
		_ = s.reg.WritePrometheus(w)
		_ = metrics.WriteGoRuntime(w)
	}
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func httpError(w http.ResponseWriter, code int, err error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(map[string]string{"error": err.Error()})
}
