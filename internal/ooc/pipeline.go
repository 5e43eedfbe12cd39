package ooc

import (
	"errors"
	"sync"
	"sync/atomic"
	"time"
)

// Panel is one resident row-panel tile: rows [Row0, Row1) of the
// matrix, row-major in Data. It is valid until Release.
type Panel struct {
	Index      int
	Row0, Row1 int
	Data       []float64
	// SumSquares is Σv² over the entries the first pass of a
	// NewNormPipeline had read when it delivered this panel, in file
	// order: tiles 0..Index on that pass, the whole matrix — ‖A‖²_F —
	// on its last panel and ever after. 0 from a NewPipeline.
	SumSquares float64
}

// Stats is the pipeline's cumulative I/O accounting. Load is time the
// loader goroutine spent reading tiles; Wait is time the consumer was
// blocked in Next waiting for one. With I/O fully hidden behind
// compute, Wait ≪ Load.
type Stats struct {
	TilesLoaded int64
	BytesLoaded int64
	Load        time.Duration
	Wait        time.Duration
}

// HiddenFraction returns the share of tile-I/O time the consumer did
// not wait for, 1 − Wait/Load (0 when nothing was loaded, clamped at
// 0).
func (s Stats) HiddenFraction() float64 {
	if s.Load <= 0 {
		return 0
	}
	return max(1-float64(s.Wait)/float64(s.Load), 0)
}

// ErrPipelineClosed is returned by Next after Close.
var ErrPipelineClosed = errors.New("ooc: pipeline closed")

// panelMsg is the loader→consumer handoff (a plain value, so the
// steady state allocates nothing).
type panelMsg struct {
	index      int
	row0, row1 int
	data       []float64
	sumSq      float64
	err        error
}

// Pipeline streams a tile file's panels in cyclic order with bounded
// prefetch: a single loader goroutine reads tile t+1 (and, at the end
// of a pass, the next pass's tile 0) while the consumer computes on
// tile t. depth is the number of tiles in flight; buffers are
// preallocated once and recycled through a free list, so Next/Release
// allocate nothing.
//
// Exactly one consumer goroutine calls Next and must Release every
// panel it receives; each full pass consumes exactly Tiles() panels.
// After a load error Next returns that error forever.
type Pipeline struct {
	f    *File
	norm bool // the loader carries Σv² across its first pass

	out     chan panelMsg
	free    chan []float64
	done    chan struct{}
	stopped chan struct{}

	closeOnce sync.Once
	cur       Panel
	failed    error

	loadNs atomic.Int64
	waitNs atomic.Int64
	bytes  atomic.Int64
	tiles  atomic.Int64
}

// DefaultDepth is the default prefetch depth: double buffering (load
// one tile ahead) hides I/O fully whenever a tile loads faster than
// the updater consumes one, at the cost of one extra resident tile.
const DefaultDepth = 2

// NewPipeline starts the loader for f. depth < 1 selects
// DefaultDepth. The pipeline owns depth tile buffers of
// f.Header().MaxTileElems() float64s each; a panel's Data is one of
// them.
func NewPipeline(f *File, depth int) *Pipeline { return NewNormPipeline(f, depth, false) }

// NewNormPipeline is NewPipeline whose loader, when norm is set, also
// sums the squares of the entries it reads on its first pass, tile by
// tile in file order — the element order of a row-major sum over the
// whole matrix, so the total has the bits of the in-core ‖A‖²_F — and
// hands the running sum over with each panel (Panel.SumSquares). The
// data read is the data summed: a norm stored in the header could
// disagree with the payload.
func NewNormPipeline(f *File, depth int, norm bool) *Pipeline {
	if depth < 1 {
		depth = DefaultDepth
	}
	if t := f.Tiles(); depth > t {
		depth = t
	}
	p := &Pipeline{
		f:       f,
		norm:    norm,
		out:     make(chan panelMsg, depth),
		free:    make(chan []float64, depth),
		done:    make(chan struct{}),
		stopped: make(chan struct{}),
	}
	for i := 0; i < depth; i++ {
		p.free <- make([]float64, f.hdr.MaxTileElems())
	}
	go p.loader()
	return p
}

// loader runs tiles 0..Tiles()-1 cyclically, forever, bounded by the
// free-buffer tokens: it naturally prefetches the next pass's first
// tiles while the consumer finishes the current pass. It exits on
// Close or after delivering a load error.
func (p *Pipeline) loader() {
	defer close(p.stopped)
	var sumSq float64
	for pass := 0; ; pass++ {
		for t := 0; t < p.f.Tiles(); t++ {
			var buf []float64
			select {
			case buf = <-p.free:
			case <-p.done:
				return
			}
			r0, r1 := p.f.TileBounds(t)
			start := time.Now()
			data, err := p.f.ReadTile(t, buf)
			p.loadNs.Add(time.Since(start).Nanoseconds())
			if err == nil {
				p.bytes.Add(int64(len(data)) * 8)
				p.tiles.Add(1)
				if p.norm && pass == 0 {
					for _, v := range data {
						sumSq += v * v
					}
				}
			}
			select {
			case p.out <- panelMsg{index: t, row0: r0, row1: r1, data: data, sumSq: sumSq, err: err}:
			case <-p.done:
				return
			}
			if err != nil {
				return
			}
		}
	}
}

// Next blocks until the next panel (in cyclic tile order) is
// resident and returns it. The blocked time is charged to
// Stats().Wait. The returned pointer is reused by the following Next,
// so consume fully, then Release, before calling Next again.
func (p *Pipeline) Next() (*Panel, error) {
	if p.failed != nil {
		return nil, p.failed
	}
	select {
	case <-p.done:
		return nil, ErrPipelineClosed
	default:
	}
	start := time.Now()
	var msg panelMsg
	select {
	case msg = <-p.out:
	case <-p.done:
		return nil, ErrPipelineClosed
	}
	p.waitNs.Add(time.Since(start).Nanoseconds())
	if msg.err != nil {
		p.failed = msg.err
		return nil, msg.err
	}
	p.cur = Panel{Index: msg.index, Row0: msg.row0, Row1: msg.row1, Data: msg.data, SumSquares: msg.sumSq}
	return &p.cur, nil
}

// Release returns the panel's buffer to the loader. Required after
// every successful Next; idempotent per panel.
func (p *Pipeline) Release(panel *Panel) {
	if panel.Data == nil {
		return
	}
	select {
	case p.free <- panel.Data:
	case <-p.done:
	}
	panel.Data = nil
}

// Stats returns the cumulative I/O accounting. Safe to call
// concurrently with the loader.
func (p *Pipeline) Stats() Stats {
	return Stats{
		TilesLoaded: p.tiles.Load(),
		BytesLoaded: p.bytes.Load(),
		Load:        time.Duration(p.loadNs.Load()),
		Wait:        time.Duration(p.waitNs.Load()),
	}
}

// Close stops the loader and waits for it to exit, so no read of the
// underlying File is in flight once it returns and the File can be
// reused or closed safely. It does not close the File itself.
func (p *Pipeline) Close() {
	p.closeOnce.Do(func() { close(p.done) })
	<-p.stopped
}
