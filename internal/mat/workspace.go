package mat

// Workspace is a buffer arena for the iteration loops: matrices of the
// same (or smaller) footprint are recycled across iterations instead
// of reallocated, which is what makes the steady-state ANLS iteration
// allocation-free. Get hands out a shaped matrix, Put returns it; the
// arena keeps returned buffers (header and backing array both) for
// reuse by best-fit capacity match.
//
// A Workspace is owned by a single goroutine (one per simulated rank),
// the same single-owner discipline as perf.Ledger — no locking. A nil
// *Workspace is valid and degenerates to plain allocation, so shared
// helpers take a workspace unconditionally.
type Workspace struct {
	free []*Dense
}

// NewWorkspace returns an empty arena.
func NewWorkspace() *Workspace { return &Workspace{} }

// Get returns an r×c matrix with unspecified contents (callers that
// need zeros call Zero on it). The buffer comes from the arena when one
// with sufficient capacity is free — best fit, so a k×k request does
// not burn an m×k buffer — and is freshly allocated otherwise. After
// one warm-up round of any fixed Get/Put pattern, Get allocates
// nothing.
func (w *Workspace) Get(r, c int) *Dense {
	if w == nil {
		return NewDense(r, c)
	}
	need := r * c
	best := -1
	for i, d := range w.free {
		if cp := cap(d.Data); cp >= need && (best < 0 || cp < cap(w.free[best].Data)) {
			best = i
		}
	}
	if best < 0 {
		return NewDense(r, c)
	}
	d := w.free[best]
	last := len(w.free) - 1
	w.free[best] = w.free[last]
	w.free[last] = nil
	w.free = w.free[:last]
	d.Rows, d.Cols = r, c
	d.Data = d.Data[:need]
	return d
}

// Put returns a matrix to the arena for reuse. The caller must not
// touch d afterwards — its header will be reshaped by a future Get.
// Put(nil) is a no-op; Put on a nil workspace drops the buffer for the
// garbage collector, matching Get's allocate-fresh behavior.
func (w *Workspace) Put(d *Dense) {
	if w == nil || d == nil || cap(d.Data) == 0 {
		return
	}
	d.Data = d.Data[:cap(d.Data)]
	w.free = append(w.free, d)
}
