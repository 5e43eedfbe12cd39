// Package serve is the online serving layer over the NMF core: it
// holds fitted models (a basis W with its cached WᵀW Gram) and serves
// batched projection — concurrent single-column requests are coalesced
// by a per-model batching loop into one stacked NNLS solve
// argmin_{H≥0} ‖W·H − C‖_F, the paper's H-subproblem (Algorithm 1,
// line 4) with W frozen. The Gram plays the role a KV cache plays in
// an inference stack: the expensive fit is amortized once, and every
// request afterwards pays only its marginal WᵀC product and a share of
// one small batched solve. Steady-state projection allocates nothing
// per request: the batcher draws every temporary from a workspace
// arena and request carriers come from a sync.Pool.
package serve

import (
	"fmt"
	"log/slog"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"hpcnmf/internal/mat"
)

// model is one resident fitted factorization: the basis, its serving
// batcher (which owns the cached Gram via its Projector), and the
// bookkeeping the LRU store needs.
type model struct {
	id    string
	w     *mat.Dense // m×k basis
	bytes int64      // resident footprint charged to the store budget
	bat   *batcher

	// lastUsed is a tick from the store's logical clock, advanced on
	// every projection touch; eviction removes the smallest. Atomic so
	// touches stay on the store's read-lock path.
	lastUsed atomic.Int64

	// durable marks a model with a committed copy in the durable
	// backing store: evicting it is a cache decision, not data loss,
	// because a later projection faults it back in.
	durable bool

	// Fit provenance, surfaced by the models listing.
	fitted     time.Time
	relErr     float64
	iterations int
}

// modelBytes estimates a model's resident footprint: basis, Gram, and
// the batcher's steady-state scratch (stacked columns + coefficients
// at full batch width).
func modelBytes(m, k, maxBatch int) int64 {
	return 8 * int64(m*k+k*k+(m+k)*maxBatch)
}

// ModelInfo is the external view of a resident model.
type ModelInfo struct {
	ID         string    `json:"id"`
	Rows       int       `json:"rows"`
	K          int       `json:"k"`
	Bytes      int64     `json:"bytes"`
	Durable    bool      `json:"durable,omitempty"`
	Fitted     time.Time `json:"fitted,omitempty"`
	RelErr     float64   `json:"rel_err,omitempty"`
	Iterations int       `json:"iterations,omitempty"`
}

// notFoundError reports a projection against an unknown (or evicted)
// model.
type notFoundError struct{ id string }

func (e notFoundError) Error() string { return fmt.Sprintf("serve: model %q not found", e.id) }

// store is the LRU model store with byte-budget eviction. Lookups and
// touches run under the read lock (lastUsed is atomic); adds, deletes,
// and evictions take the write lock, which also serializes them
// against in-flight submits — a batcher is only ever closed while no
// submit can be between lookup and enqueue.
type store struct {
	mu     sync.RWMutex
	clock  atomic.Int64
	budget int64
	bytes  int64
	models map[string]*model
	met    *serveMetrics
	log    *slog.Logger
	closed bool

	// rehydrating guards in-flight faults from the durable backing
	// store: one loader per id, concurrent requests get a retryable
	// errRehydrating (503) instead of piling onto the disk read.
	rehydrating map[string]struct{}
}

func newStore(budget int64, met *serveMetrics, log *slog.Logger) *store {
	return &store{budget: budget, models: map[string]*model{}, met: met, log: log,
		rehydrating: map[string]struct{}{}}
}

// withModel runs fn on the named model under the read lock, bumping
// its LRU tick. fn typically enqueues onto the model's batcher; the
// lock guarantees the batcher cannot be closed concurrently.
func (s *store) withModel(id string, fn func(*model) error) error {
	s.mu.RLock()
	defer s.mu.RUnlock()
	m, ok := s.models[id]
	if !ok {
		return notFoundError{id}
	}
	m.lastUsed.Store(s.clock.Add(1))
	return fn(m)
}

// add inserts (or replaces) a model and evicts least-recently-used
// entries until the byte budget holds. The newly added model is never
// evicted, so a single model larger than the whole budget still
// serves. Closing a replaced or evicted batcher drains its queued
// requests (they are answered, not dropped) — no new submits can race
// in while the write lock is held.
func (s *store) add(m *model) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return fmt.Errorf("serve: store is shut down")
	}
	var drain []*batcher
	if old, ok := s.models[m.id]; ok {
		s.bytes -= old.bytes
		drain = append(drain, old.bat)
	}
	m.lastUsed.Store(s.clock.Add(1))
	s.models[m.id] = m
	s.bytes += m.bytes
	for s.budget > 0 && s.bytes > s.budget && len(s.models) > 1 {
		victim := s.oldestExcept(m.id)
		if victim == nil {
			break
		}
		delete(s.models, victim.id)
		s.bytes -= victim.bytes
		drain = append(drain, victim.bat)
		s.met.storeEvictions.Inc()
		if !victim.durable {
			// Evicting the only copy of a fitted model is data loss, not
			// cache management: the next projection against it will 404
			// and the fit cannot be replayed. Run with a durable store
			// (nmfserve -store) to make eviction safe.
			s.met.storeEvictionsUndurable.Inc()
			s.log.Warn("evicting model with no durable backing — the fitted model is lost",
				"model", victim.id, "bytes", victim.bytes)
		}
	}
	s.publishGauges()
	s.mu.Unlock()
	for _, b := range drain {
		b.close()
	}
	return nil
}

// oldestExcept returns the resident model with the smallest LRU tick,
// excluding the named one.
func (s *store) oldestExcept(keep string) *model {
	var victim *model
	for id, m := range s.models {
		if id == keep {
			continue
		}
		if victim == nil || m.lastUsed.Load() < victim.lastUsed.Load() {
			victim = m
		}
	}
	return victim
}

// remove deletes a model; reports whether it existed.
func (s *store) remove(id string) bool {
	s.mu.Lock()
	m, ok := s.models[id]
	if ok {
		delete(s.models, id)
		s.bytes -= m.bytes
	}
	s.publishGauges()
	s.mu.Unlock()
	if ok {
		m.bat.close()
	}
	return ok
}

// list returns the resident models sorted by id.
func (s *store) list() []ModelInfo {
	s.mu.RLock()
	out := make([]ModelInfo, 0, len(s.models))
	for _, m := range s.models {
		out = append(out, ModelInfo{
			ID:         m.id,
			Rows:       m.w.Rows,
			K:          m.w.Cols,
			Bytes:      m.bytes,
			Durable:    m.durable,
			Fitted:     m.fitted,
			RelErr:     m.relErr,
			Iterations: m.iterations,
		})
	}
	s.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// closeAll shuts the store: every batcher is closed (draining its
// queue) and further adds are rejected.
func (s *store) closeAll() {
	s.mu.Lock()
	s.closed = true
	victims := make([]*batcher, 0, len(s.models))
	for _, m := range s.models {
		victims = append(victims, m.bat)
	}
	s.models = map[string]*model{}
	s.bytes = 0
	s.publishGauges()
	s.mu.Unlock()
	for _, b := range victims {
		b.close()
	}
}

// beginRehydrate claims the right to fault id in from the durable
// store. It fails when another loader already holds the claim (the
// caller should answer 503 + Retry-After) and is a no-op success
// signal when the model raced back into residency.
func (s *store) beginRehydrate(id string) (claimed bool, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return false, fmt.Errorf("serve: store is shut down")
	}
	if _, ok := s.models[id]; ok {
		return false, nil // already resident — no rehydration needed
	}
	if _, busy := s.rehydrating[id]; busy {
		return false, errRehydrating
	}
	s.rehydrating[id] = struct{}{}
	return true, nil
}

func (s *store) endRehydrate(id string) {
	s.mu.Lock()
	delete(s.rehydrating, id)
	s.mu.Unlock()
}

// publishGauges mirrors occupancy into the metrics registry; callers
// hold the write lock (or the read lock for unchanged values).
func (s *store) publishGauges() {
	s.met.storeModels.Set(float64(len(s.models)))
	s.met.storeBytes.Set(float64(s.bytes))
}
