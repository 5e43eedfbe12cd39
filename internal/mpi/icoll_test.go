package mpi

import (
	"fmt"
	"testing"
	"time"

	"hpcnmf/internal/metrics"
)

// TestIAllGatherVMatchesBlocking checks the nonblocking all-gatherv
// returns exactly what the blocking call returns, across communicator
// sizes and uneven counts.
func TestIAllGatherVMatchesBlocking(t *testing.T) {
	for _, p := range sizes {
		counts := make([]int, p)
		for r := range counts {
			counts[r] = (r % 4) + 1
		}
		w := NewWorld(p)
		w.Run(func(c *Comm) {
			data := make([]float64, counts[c.Rank()])
			for i := range data {
				data[i] = float64(c.Rank()*100 + i)
			}
			req := c.IAllGatherV(data, counts)
			nb := req.Wait()
			bl := c.AllGatherV(data, counts)
			if len(nb) != len(bl) {
				t.Errorf("p=%d: nonblocking length %d, blocking %d", p, len(nb), len(bl))
				return
			}
			for i := range nb {
				if nb[i] != bl[i] {
					t.Errorf("p=%d: mismatch at %d: %v vs %v", p, i, nb[i], bl[i])
					return
				}
			}
		})
	}
}

// TestNonblockingOverlapsCompute demonstrates genuine overlap: while
// the request is in flight every rank does local work, and the
// collective's rounds progress behind it. With blocking calls the
// communication time would be serialized after the compute.
func TestNonblockingOverlapsCompute(t *testing.T) {
	const p = 4
	reg := metrics.NewRegistry()
	w := NewWorld(p)
	w.SetMetrics(reg)
	w.Run(func(c *Comm) {
		data := []float64{float64(c.Rank())}
		req := c.IAllGatherV(data, splitCounts(p, p))
		time.Sleep(20 * time.Millisecond) // "compute"
		got := req.Wait()
		for r := 0; r < p; r++ {
			if got[r] != float64(r) {
				t.Errorf("rank %d: gathered[%d] = %v", c.Rank(), r, got[r])
			}
		}
	})
	// Every rank slept 20ms while the collective ran, so the recorded
	// overlap window must dominate the residual wait.
	for r := 0; r < p; r++ {
		window := reg.Counter(fmt.Sprintf("mpi.rank.%d.overlap.window.ns", r)).Value()
		wait := reg.Counter(fmt.Sprintf("mpi.rank.%d.overlap.wait.ns", r)).Value()
		if window < (10 * time.Millisecond).Nanoseconds() {
			t.Errorf("rank %d: overlap window %dns, want ≥ 10ms", r, window)
		}
		if wait > window {
			t.Errorf("rank %d: residual wait %dns exceeds window %dns", r, wait, window)
		}
		eff := reg.Gauge(fmt.Sprintf("mpi.rank.%d.overlap.efficiency", r)).Value()
		if eff < 0.5 || eff > 1 {
			t.Errorf("rank %d: overlap efficiency %v outside (0.5, 1]", r, eff)
		}
	}
	if n := reg.Counter("mpi.overlap.requests").Value(); n != p {
		t.Errorf("overlap.requests = %d, want %d", n, p)
	}
}

// TestDoubleWaitIsIdempotent: Wait after Wait returns the same slice,
// never blocks, never re-runs the schedule.
func TestDoubleWaitIsIdempotent(t *testing.T) {
	w := NewWorld(3)
	w.Run(func(c *Comm) {
		req := c.IAllGatherV([]float64{float64(c.Rank())}, splitCounts(3, 3))
		first := req.Wait()
		second := req.Wait()
		if &first[0] != &second[0] {
			t.Errorf("rank %d: second Wait returned a different buffer", c.Rank())
		}
	})
}

// TestDroppedHandleDrainedByNextCollective: misuse — posting a
// request and never waiting — must not wedge or corrupt the next
// blocking collective; the runtime drains the orphan at the next
// collective boundary.
func TestDroppedHandleDrainedByNextCollective(t *testing.T) {
	w := NewWorld(4)
	w.Run(func(c *Comm) {
		c.IAllGatherV([]float64{float64(c.Rank())}, splitCounts(4, 4)) // dropped
		sum := c.AllReduce([]float64{1})
		if sum[0] != 4 {
			t.Errorf("rank %d: AllReduce after dropped handle = %v", c.Rank(), sum[0])
		}
	})
}

// TestDroppedHandleDrainedAtRunEnd: a dropped handle with no
// subsequent collective is joined when the rank body returns.
func TestDroppedHandleDrainedAtRunEnd(t *testing.T) {
	w := NewWorld(4)
	w.Run(func(c *Comm) {
		c.IAllGatherV([]float64{float64(c.Rank())}, splitCounts(4, 4))
	})
}

// TestLateWaitAfterInterveningCollective: waiting on a handle after
// later blocking collectives already forced its completion must still
// return the correct (cached) result.
func TestLateWaitAfterInterveningCollective(t *testing.T) {
	w := NewWorld(4)
	w.Run(func(c *Comm) {
		req := c.IAllGatherV([]float64{float64(c.Rank())}, splitCounts(4, 4))
		c.Barrier() // drains the outstanding request internally
		got := req.Wait()
		for r := 0; r < 4; r++ {
			if got[r] != float64(r) {
				t.Errorf("rank %d: late Wait[%d] = %v", c.Rank(), r, got[r])
			}
		}
	})
}

// TestNonblockingValidatesArguments: argument validation fires at
// post time on the caller's goroutine, exactly like the blocking
// calls.
func TestNonblockingValidatesArguments(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("mismatched counts did not panic at post")
		}
	}()
	w := NewWorld(2)
	w.Run(func(c *Comm) {
		c.IAllGatherV([]float64{1, 2, 3}, []int{1, 1}) // data ≠ counts[rank]
	})
}

// TestNonblockingOnSubComms: requests posted on row/column
// sub-communicators (the driver's usage) behave identically.
func TestNonblockingOnSubComms(t *testing.T) {
	w := NewWorld(6)
	w.Run(func(c *Comm) {
		row := c.Rank() / 3
		rc := c.Sub([]int{row * 3, row*3 + 1, row*3 + 2})
		req := rc.IAllGatherV([]float64{float64(c.Rank())}, splitCounts(3, 3))
		got := req.Wait()
		for i := 0; i < 3; i++ {
			if got[i] != float64(row*3+i) {
				t.Errorf("rank %d: sub-comm gather[%d] = %v", c.Rank(), i, got[i])
			}
		}
	})
}

// TestNonblockingZeroLengthContribution: ranks may contribute zero
// words; the request must still complete and concatenate correctly.
func TestNonblockingZeroLengthContribution(t *testing.T) {
	for _, p := range []int{2, 3, 5, 8} {
		counts := make([]int, p)
		for r := range counts {
			if r%2 == 0 {
				counts[r] = 2
			}
		}
		w := NewWorld(p)
		w.Run(func(c *Comm) {
			data := make([]float64, counts[c.Rank()])
			for i := range data {
				data[i] = float64(c.Rank())
			}
			got := c.IAllGatherV(data, counts).Wait()
			pos := 0
			for r := 0; r < p; r++ {
				for i := 0; i < counts[r]; i++ {
					if got[pos] != float64(r) {
						t.Errorf("p=%d: gathered[%d] = %v, want %v", p, pos, got[pos], r)
					}
					pos++
				}
			}
		})
	}
}

// TestNonblockingSequentialRequests: back-to-back request/wait pairs
// keep the lockstep tag schedule aligned across many operations.
func TestNonblockingSequentialRequests(t *testing.T) {
	const p, rounds = 4, 25
	w := NewWorld(p)
	w.Run(func(c *Comm) {
		for i := 0; i < rounds; i++ {
			got := c.IAllGatherV([]float64{float64(c.Rank()*rounds + i)}, splitCounts(p, p)).Wait()
			for r := 0; r < p; r++ {
				if got[r] != float64(r*rounds+i) {
					t.Fatalf("round %d: gathered[%d] = %v", i, r, got[r])
				}
			}
		}
	})
}

// TestNonblockingPanicInScheduleSurfaces: a failure inside the
// background schedule (here, a deliberately mismatched peer schedule
// that trips the deadlock detector) must surface as a Run panic, not
// a hang or a silent nil result.
func TestNonblockingPanicInScheduleSurfaces(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("background schedule failure did not propagate")
		}
	}()
	w := NewWorld(2)
	w.SetDeadline(200 * time.Millisecond)
	w.Run(func(c *Comm) {
		if c.Rank() == 0 {
			c.IAllGatherV([]float64{1}, []int{1, 1}).Wait()
		}
		// Rank 1 never joins: rank 0's background recv times out.
	})
}
