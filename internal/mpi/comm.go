package mpi

import (
	"fmt"
	"hash/fnv"
	"time"

	"hpcnmf/internal/metrics"
	"hpcnmf/internal/trace"
)

// Comm is a communicator: an ordered group of ranks that take part in
// collective operations together, analogous to an MPI communicator.
// A Comm value belongs to exactly one rank (it is that rank's handle).
type Comm struct {
	world   *World
	rank    int   // this rank's position within the communicator
	members []int // communicator rank -> world rank
	id      uint32
	seq     int // per-rank collective sequence number, advances in lockstep
	// tracer is this rank's event tracer when the world has tracing
	// attached (nil otherwise); sub-communicators inherit it.
	tracer *trace.Tracer
	// dropSends suppresses message delivery for the duration of one
	// collective (the FaultDrop action): peers observe silence and
	// fail by deadline, exercising the detector end to end.
	dropSends bool
}

// Tracer returns this rank's event tracer, or nil when tracing is
// off. Safe to pass to trace.Tracer methods either way (they are
// nil-receiver safe).
func (c *Comm) Tracer() *trace.Tracer { return c.tracer }

// Rank returns this process's rank within the communicator.
func (c *Comm) Rank() int { return c.rank }

// Size returns the number of ranks in the communicator.
func (c *Comm) Size() int { return len(c.members) }

// WorldRank returns this process's rank in the world communicator.
func (c *Comm) WorldRank() int { return c.members[c.rank] }

// Counters returns this rank's world-level traffic counters. All
// communicators of a rank share one counter set.
func (c *Comm) Counters() *Counters { return c.world.counters[c.WorldRank()] }

// opBase reserves a tag namespace for one collective call. All
// members advance seq in lockstep because they execute the same
// program order, so matching calls agree on the base.
func (c *Comm) opBase() int {
	c.seq++
	return (int(c.id)*131071 + c.seq) * 4096
}

// send and recv are the internal primitives used by collectives; dst
// and src are communicator ranks.
func (c *Comm) send(dst, tag int, data []float64, cat Category) {
	if c.dropSends {
		// FaultDrop: the message is lost on the wire. The sender is
		// still charged (its NIC transmitted), but nothing arrives.
		c.world.counters[c.WorldRank()].Add(cat, 1, int64(len(data)))
		return
	}
	c.world.send(c.WorldRank(), c.members[dst], tag, data, cat)
}

func (c *Comm) recv(src, tag int) []float64 {
	return c.world.recv(c.members[src], c.WorldRank(), tag)
}

// collEvent times one collective call for the tracer and the latency
// histogram. With observability and fault injection off it is (almost)
// the zero value and both begin and end reduce to a few nil checks —
// no clock read, no allocation, no ring-buffer touch.
type collEvent struct {
	sp    trace.Span
	hist  *metrics.Histogram
	start time.Time
	// dropped remembers that this collective armed dropSends, so end
	// can disarm it.
	dropped *Comm
}

// beginColl opens the span/latency sample for a collective and gives
// the fault injector its shot at the call-site; words is this rank's
// contribution size, recorded as the span payload.
func (c *Comm) beginColl(cat Category, words int) collEvent {
	var ev collEvent
	if c.tracer != nil {
		ev.sp = c.tracer.BeginArg(trace.CatMPI, cat.String(), "words", int64(words))
	}
	if h := c.world.latency(cat); h != nil {
		ev.hist = h
		ev.start = time.Now()
	}
	if c.world.fault != nil {
		c.injectFault(cat, &ev)
	}
	return ev
}

// injectFault consults the armed injector at this collective call-site
// and applies the drawn action: delay stalls the rank, drop arms
// dropSends for the collective's duration, kill fails the rank with a
// typed RankFailedError. Each injection is recorded as a trace span
// and an mpi.fault.<action> counter when those instruments are
// attached.
func (c *Comm) injectFault(cat Category, ev *collEvent) {
	act, d := c.world.fault(c.WorldRank(), cat.String())
	if act == FaultNone {
		return
	}
	sp := c.tracer.Begin(trace.CatMPI, "fault:"+act.String())
	if m := c.world.metrics; m != nil {
		m.Counter("mpi.fault." + act.String()).Inc()
	}
	switch act {
	case FaultDelay:
		time.Sleep(d)
		sp.End()
	case FaultDrop:
		c.dropSends = true
		ev.dropped = c
		sp.End()
	case FaultKill:
		sp.End()
		ev.sp.End()
		panic(&RankFailedError{Rank: c.WorldRank(), Site: cat.String(), Err: ErrInjectedKill})
	}
}

// end closes the span, observes the latency sample, and disarms a drop
// injection.
func (ev collEvent) end() {
	if ev.dropped != nil {
		ev.dropped.dropSends = false
	}
	ev.sp.End()
	if ev.hist != nil {
		ev.hist.Observe(time.Since(ev.start).Seconds())
	}
}

// Sub creates a sub-communicator from the parent. members lists the
// parent-communicator ranks belonging to the new group, in the order
// that defines their new ranks. Every listed rank must call Sub with
// an identical members slice; ranks not listed must not call. Sub
// performs no communication (group membership is computed locally,
// as with MPI_Comm_create_group when the group is known).
func (c *Comm) Sub(members []int) *Comm {
	myNew := -1
	world := make([]int, len(members))
	for i, m := range members {
		if m < 0 || m >= c.Size() {
			panic(fmt.Sprintf("mpi: Sub member %d outside communicator of size %d", m, c.Size()))
		}
		world[i] = c.members[m]
		if m == c.rank {
			myNew = i
		}
	}
	if myNew < 0 {
		panic(fmt.Sprintf("mpi: rank %d called Sub but is not in the member list", c.rank))
	}
	h := fnv.New32a()
	var buf [4]byte
	put := func(v uint32) {
		buf[0], buf[1], buf[2], buf[3] = byte(v), byte(v>>8), byte(v>>16), byte(v>>24)
		h.Write(buf[:])
	}
	put(c.id + 1)
	for _, wr := range world {
		put(uint32(wr))
	}
	return &Comm{world: c.world, rank: myNew, members: world, id: h.Sum32(), tracer: c.tracer}
}

// Barrier blocks until every rank in the communicator has entered it
// (dissemination algorithm, ⌈log₂ p⌉ rounds).
func (c *Comm) Barrier() {
	ev := c.beginColl(CatBarrier, 0)
	defer ev.end()
	base := c.opBase()
	p := c.Size()
	step := 0
	for dist := 1; dist < p; dist <<= 1 {
		dst := (c.rank + dist) % p
		src := (c.rank - dist + p) % p
		c.send(dst, base+step, nil, CatBarrier)
		c.recv(src, base+step)
		step++
	}
}

// offsetsOf returns the exclusive prefix sums of counts plus the total.
func offsetsOf(counts []int) ([]int, int) {
	offsets := make([]int, len(counts))
	total := 0
	for i, n := range counts {
		offsets[i] = total
		total += n
	}
	return offsets, total
}

// isPow2 reports whether v is a power of two.
func isPow2(v int) bool { return v > 0 && v&(v-1) == 0 }
