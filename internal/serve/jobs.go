package serve

import (
	"errors"
	"fmt"
	"log/slog"
	"sync"
	"time"

	"hpcnmf/internal/core"
	"hpcnmf/internal/obs"
)

// errQueueFull is the fit backpressure signal: the bounded job queue
// has no room. The HTTP layer maps it to 429 + Retry-After.
var errQueueFull = errors.New("serve: fit queue full")

// maxFinishedJobs bounds how many done or failed job records stay
// pollable; beyond it the oldest finished record is dropped and its id
// answers 404. Queued and running jobs are never dropped.
const maxFinishedJobs = 256

// JobState is the lifecycle of an async fit job.
type JobState string

const (
	JobQueued  JobState = "queued"
	JobRunning JobState = "running"
	JobDone    JobState = "done"
	JobFailed  JobState = "failed"
)

// JobInfo is the pollable view of a fit job (GET /v1/jobs/{id}).
type JobInfo struct {
	ID         string    `json:"id"`
	Model      string    `json:"model"`
	State      JobState  `json:"state"`
	Error      string    `json:"error,omitempty"`
	RelErr     float64   `json:"rel_err,omitempty"`
	Iterations int       `json:"iterations,omitempty"`
	Created    time.Time `json:"created"`
	Started    time.Time `json:"started,omitempty"`
	Finished   time.Time `json:"finished,omitempty"`
}

// fitJob is one queued factorization. spec.Data, the request's whole
// matrix, is let go when the job reaches a terminal state.
type fitJob struct {
	id   string
	spec FitRequest

	mu         sync.Mutex
	state      JobState
	err        error
	relErr     float64
	iterations int
	created    time.Time
	started    time.Time
	finished   time.Time
	// progress accumulates per-iteration convergence telemetry while
	// the fit runs; the progress endpoint streams it incrementally.
	progress []core.Progress
}

// addProgress appends one iteration's telemetry (the driver's Progress
// callback, called from the fit worker goroutine).
func (j *fitJob) addProgress(p core.Progress) {
	j.mu.Lock()
	j.progress = append(j.progress, p)
	j.mu.Unlock()
}

// progressSince returns the telemetry records from index n on (copied,
// so the caller can encode without holding the lock) together with the
// job's current state — one consistent read, so a terminal state never
// hides records that arrived before it.
func (j *fitJob) progressSince(n int) ([]core.Progress, JobState) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if n >= len(j.progress) {
		return nil, j.state
	}
	return append([]core.Progress(nil), j.progress[n:]...), j.state
}

func (j *fitJob) info() JobInfo {
	j.mu.Lock()
	defer j.mu.Unlock()
	info := JobInfo{
		ID:         j.id,
		Model:      j.spec.Model,
		State:      j.state,
		RelErr:     j.relErr,
		Iterations: j.iterations,
		Created:    j.created,
		Started:    j.started,
		Finished:   j.finished,
	}
	if j.err != nil {
		info.Error = j.err.Error()
	}
	return info
}

// jobs is the async fit subsystem: a bounded queue feeding a fixed
// worker pool. Submit never blocks — a full queue is backpressure
// (errQueueFull), not a stall. On close the workers drain the queue:
// every accepted job runs to completion before Close returns, matching
// the store's drain-don't-drop shutdown contract.
type jobs struct {
	mu          sync.Mutex
	byID        map[string]*fitJob
	finishedIDs []string // ids of terminal jobs still in byID, oldest first
	nextID      int
	queue       chan *fitJob
	closed      bool
	wg          sync.WaitGroup
	run         func(*fitJob) (relErr float64, iterations int, err error)
	met         *serveMetrics
	log         *slog.Logger
}

// newJobs starts workers goroutines draining a queue of the given
// capacity; run executes one job (fitting the model and installing it
// in the store).
func newJobs(workers, queueCap int, met *serveMetrics, log *slog.Logger, run func(*fitJob) (float64, int, error)) *jobs {
	if log == nil {
		log = obs.Nop()
	}
	q := &jobs{
		byID:  map[string]*fitJob{},
		queue: make(chan *fitJob, queueCap),
		run:   run,
		met:   met,
		log:   log,
	}
	for i := 0; i < workers; i++ {
		q.wg.Add(1)
		go q.worker()
	}
	return q
}

// submit enqueues a fit job, returning its pollable id, or
// errQueueFull when the bounded queue has no room.
func (q *jobs) submit(spec FitRequest) (string, error) {
	q.mu.Lock()
	if q.closed {
		q.mu.Unlock()
		return "", errClosing
	}
	q.nextID++
	j := &fitJob{
		id:      fmt.Sprintf("fit-%d", q.nextID),
		spec:    spec,
		state:   JobQueued,
		created: time.Now(),
	}
	select {
	case q.queue <- j:
	default:
		q.nextID--
		q.mu.Unlock()
		q.met.fitRejected.Inc()
		return "", errQueueFull
	}
	q.byID[j.id] = j
	q.met.fitAccepted.Inc()
	q.met.fitQueueDepth.Set(float64(len(q.queue)))
	q.mu.Unlock()
	return j.id, nil
}

// get returns the job's pollable state.
func (q *jobs) get(id string) (JobInfo, bool) {
	j, ok := q.lookup(id)
	if !ok {
		return JobInfo{}, false
	}
	return j.info(), true
}

// lookup returns the job itself (for the progress stream, which reads
// incrementally under the job's own lock).
func (q *jobs) lookup(id string) (*fitJob, bool) {
	q.mu.Lock()
	j, ok := q.byID[id]
	q.mu.Unlock()
	return j, ok
}

// retryAfter estimates how long a rejected client should wait before
// resubmitting: one second per queued job, at least one.
func (q *jobs) retryAfter() int {
	if n := len(q.queue); n > 1 {
		return n
	}
	return 1
}

func (q *jobs) worker() {
	defer q.wg.Done()
	for j := range q.queue {
		q.met.fitQueueDepth.Set(float64(len(q.queue)))
		j.mu.Lock()
		j.state = JobRunning
		j.started = time.Now()
		j.mu.Unlock()

		q.log.Debug("fit started", "job", j.id, "model", j.spec.Model, "k", j.spec.K)
		relErr, iters, err := q.run(j)

		// The terminal state, letting go of the request matrix and the
		// bound on finished records are one step under q.mu, so a
		// poller that sees the state also sees the bound.
		q.mu.Lock()
		j.mu.Lock()
		j.finished = time.Now()
		elapsed := j.finished.Sub(j.started)
		j.spec.Data = nil
		j.state, j.err = JobFailed, err
		if err == nil {
			j.state, j.relErr, j.iterations = JobDone, relErr, iters
		}
		j.mu.Unlock()
		q.finishedIDs = append(q.finishedIDs, j.id)
		if len(q.finishedIDs) > maxFinishedJobs {
			delete(q.byID, q.finishedIDs[0])
			q.finishedIDs = q.finishedIDs[1:]
		}
		q.mu.Unlock()
		if err != nil {
			q.met.fitFailed.Inc()
			q.log.Warn("fit failed", "job", j.id, "model", j.spec.Model, "err", err)
			continue
		}
		q.met.fitCompleted.Inc()
		q.log.Info("fit complete", "job", j.id, "model", j.spec.Model,
			"iterations", iters, "rel_err", relErr, "elapsed", elapsed)
	}
}

// close stops intake and waits for the workers to drain every accepted
// job. Idempotent.
func (q *jobs) close() {
	q.mu.Lock()
	if q.closed {
		q.mu.Unlock()
		q.wg.Wait()
		return
	}
	q.closed = true
	close(q.queue)
	q.mu.Unlock()
	q.wg.Wait()
}
