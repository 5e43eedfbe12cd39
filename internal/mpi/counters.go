package mpi

import "fmt"

// Category classifies communication traffic by the collective that
// produced it, matching the task breakdown reported in the paper's
// Figure 3 (All-Gather, Reduce-Scatter, All-Reduce) plus the auxiliary
// operations.
type Category int

const (
	CatBarrier Category = iota
	CatBcast
	CatGather
	CatAllGather
	CatReduceScatter
	CatAllReduce
	CatSetup // communicator construction; excluded from per-iteration models
	numCategories
)

// String returns the display name used in reports.
func (c Category) String() string {
	switch c {
	case CatBarrier:
		return "Barrier"
	case CatBcast:
		return "Bcast"
	case CatGather:
		return "Gather"
	case CatAllGather:
		return "AllGather"
	case CatReduceScatter:
		return "ReduceScatter"
	case CatAllReduce:
		return "AllReduce"
	case CatSetup:
		return "Setup"
	default:
		return fmt.Sprintf("Category(%d)", int(c))
	}
}

// Categories lists all traffic categories in display order.
func Categories() []Category {
	out := make([]Category, numCategories)
	for i := range out {
		out[i] = Category(i)
	}
	return out
}

// Traffic counts messages and words (float64 values) sent by one rank
// under one category. Only the sender is charged: in every algorithm
// in this package the send count along the critical path equals the
// receive count, and charging one side keeps α·msgs additive.
type Traffic struct {
	Msgs  int64
	Words int64
}

// Counters accumulates per-category traffic for one rank.
type Counters struct {
	byCat [numCategories]Traffic
}

// NewCounters returns zeroed counters.
func NewCounters() *Counters { return &Counters{} }

// Add charges msgs messages and words words to category cat.
func (c *Counters) Add(cat Category, msgs, words int64) {
	c.byCat[cat].Msgs += msgs
	c.byCat[cat].Words += words
}

// Get returns the traffic recorded under cat.
func (c *Counters) Get(cat Category) Traffic { return c.byCat[cat] }

// Total returns the sum over all categories except Setup.
func (c *Counters) Total() Traffic {
	var t Traffic
	for cat, tr := range c.byCat {
		if Category(cat) == CatSetup {
			continue
		}
		t.Msgs += tr.Msgs
		t.Words += tr.Words
	}
	return t
}

// Snapshot returns a copy of the current counter state.
func (c *Counters) Snapshot() *Counters {
	out := NewCounters()
	out.byCat = c.byCat
	return out
}

// Diff returns counters holding c - earlier, category by category.
func (c *Counters) Diff(earlier *Counters) *Counters {
	out := NewCounters()
	for i := range out.byCat {
		out.byCat[i].Msgs = c.byCat[i].Msgs - earlier.byCat[i].Msgs
		out.byCat[i].Words = c.byCat[i].Words - earlier.byCat[i].Words
	}
	return out
}
