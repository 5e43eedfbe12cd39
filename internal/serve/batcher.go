package serve

import (
	"errors"
	"sync"
	"time"

	"hpcnmf/internal/core"
	"hpcnmf/internal/mat"
	"hpcnmf/internal/trace"
)

// errBusy is the projection backpressure signal: the model's pending
// queue is full. The HTTP layer maps it to 429 + Retry-After.
var errBusy = errors.New("serve: projection queue full")

// errClosing is returned for submits that race a model's shutdown or
// eviction; mapped to 503.
var errClosing = errors.New("serve: model is shutting down")

// projReq carries one column through the batching loop. Carriers are
// recycled through a sync.Pool and own their buffers, so the
// steady-state request path allocates nothing: col and h grow to the
// model's m and k once and are reused verbatim afterwards. done is a
// 1-buffered channel reused across lives — the batcher sends exactly
// one token per submitted request, the waiter receives exactly one.
type projReq struct {
	col   []float64 // input column (length m)
	h     []float64 // output coefficients (length k)
	resid float64   // relative residual ‖c − W·h‖/‖c‖
	err   error
	done  chan struct{}
	// sc is the requesting span's identity (zero when tracing is off):
	// the batcher parents its batch span under it, linking the HTTP
	// request track to the batcher track.
	sc trace.SpanContext
}

var reqPool = sync.Pool{New: func() any { return &projReq{done: make(chan struct{}, 1)} }}

// newReq draws a blank carrier; its col buffer keeps its capacity.
func newReq() *projReq {
	r := reqPool.Get().(*projReq)
	r.err = nil
	r.resid = 0
	r.sc = trace.SpanContext{}
	return r
}

// getReq draws a carrier and loads the input column into it.
func getReq(col []float64) *projReq {
	r := newReq()
	r.col = append(r.col[:0], col...)
	return r
}

// putReq returns a carrier to the pool. The caller must be done with
// r.h (copy it out first).
func putReq(r *projReq) { reqPool.Put(r) }

// batcher coalesces concurrent projection requests against one model
// into stacked NNLS solves. One goroutine (loop) owns the solver
// resources — Projector, workspace, tracer — in the same single-owner
// discipline as the rank goroutines of the compute core, so the hot
// path takes no locks beyond the queue mutex.
//
// Flush policy is natural batching: the moment the loop is free it cuts
// whatever is queued, up to maxBatch columns, and solves it. Columns
// that arrive while a solve runs form the next stacked solve, so
// requests coalesce exactly when the solver is the bottleneck, and a
// lone request on an idle model waits for nothing — there is no timer
// and no linger to tune.
type batcher struct {
	proj     *core.Projector
	ws       *mat.Workspace
	maxBatch int
	queueCap int
	met      *serveMetrics
	tc       *trace.Tracer // may be nil (tracing off)

	mu     sync.Mutex
	cond   *sync.Cond // wakes the loop when work arrives
	queue  []*projReq
	closed bool

	done chan struct{} // loop exit

	resid []float64 // per-flush residual scratch, cap maxBatch
}

// newBatcher builds a batcher around an existing projector; nothing is
// solved until its loop runs.
func newBatcher(proj *core.Projector, maxBatch, queueCap int, met *serveMetrics, tc *trace.Tracer) *batcher {
	b := &batcher{
		proj:     proj,
		ws:       mat.NewWorkspace(),
		maxBatch: maxBatch,
		queueCap: queueCap,
		met:      met,
		tc:       tc,
		done:     make(chan struct{}),
		resid:    make([]float64, maxBatch),
	}
	b.cond = sync.NewCond(&b.mu)
	return b
}

// submit enqueues a group of requests atomically: either all are
// accepted or none (so a multi-column request cannot be half-served).
// Callers hold the store's read lock, which excludes close.
func (b *batcher) submit(reqs ...*projReq) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return errClosing
	}
	if len(b.queue)+len(reqs) > b.queueCap {
		return errBusy
	}
	b.queue = append(b.queue, reqs...)
	b.cond.Signal()
	return nil
}

// close stops the loop after it drains the queue: every request
// submitted before close is answered. Idempotent.
func (b *batcher) close() {
	b.mu.Lock()
	b.closed = true
	b.mu.Unlock()
	b.cond.Signal()
	<-b.done
}

// loop is the batching goroutine: wait for work, cut a batch of at most
// maxBatch, flush, repeat. On close it keeps cutting batches until the
// queue is empty, so shutdown drains rather than drops.
func (b *batcher) loop() {
	defer close(b.done)
	batch := make([]*projReq, 0, b.maxBatch)
	for {
		b.mu.Lock()
		for len(b.queue) == 0 && !b.closed {
			b.cond.Wait()
		}
		if len(b.queue) == 0 {
			b.mu.Unlock()
			return
		}
		n := min(len(b.queue), b.maxBatch)
		batch = append(batch[:0], b.queue[:n]...)
		rest := copy(b.queue, b.queue[n:])
		clear(b.queue[rest:])
		b.queue = b.queue[:rest]
		b.mu.Unlock()
		b.flush(batch)
	}
}

// flush runs one stacked NNLS solve over the batch and answers every
// request. One trace span covers the batch (column count as payload),
// a nested one the solve itself; the projector adds kernel spans under
// the solve. When the batch carries request span contexts, the batch
// span is parented under the first request's span — a coalesced batch
// has many requesters but one causal chain, and the trace shows the
// others' requests overlapping it on the request track.
func (b *batcher) flush(batch []*projReq) {
	n := len(batch)
	if n == 0 {
		return
	}
	start := time.Now()
	var sp trace.Span
	if sc := batch[0].sc; sc.Valid() {
		sp = b.tc.BeginChildArg(sc, trace.CatPhase, "serve.batch", "cols", int64(n))
	} else {
		sp = b.tc.BeginArg(trace.CatPhase, "serve.batch", "cols", int64(n))
	}
	m, k := b.proj.Dims()

	cmat := b.ws.Get(m, n)
	for j, r := range batch {
		for i := 0; i < m; i++ {
			cmat.Data[i*n+j] = r.col[i]
		}
	}
	dst := b.ws.Get(k, n)
	ssp := b.tc.Begin(trace.CatPhase, "serve.solve")
	_, err := b.proj.ProjectInto(dst, cmat, b.resid[:n])
	ssp.End()
	b.met.solves.Inc()

	for j, r := range batch {
		if err != nil {
			r.err = err
		} else {
			if cap(r.h) < k {
				r.h = make([]float64, k)
			}
			r.h = r.h[:k]
			for i := 0; i < k; i++ {
				r.h[i] = dst.Data[i*n+j]
			}
			r.resid = b.resid[j]
		}
		r.done <- struct{}{}
	}
	b.ws.Put(dst)
	b.ws.Put(cmat)

	b.met.batches.Inc()
	b.met.batchCols.Observe(float64(n))
	b.met.batchLatency.Observe(time.Since(start).Seconds())
	if err != nil {
		b.met.projectErrors.Add(int64(n))
	}
	sp.End()
}
