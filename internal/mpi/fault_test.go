package mpi

import (
	"errors"
	"strings"
	"sync"
	"testing"
	"time"
)

// runExpectingFailure runs body and returns the RankFailedError the
// world fails with, failing the test if the run succeeds or panics
// with anything else. Run returning at all is itself the no-deadlock
// assertion: every surviving rank unblocked and exited.
func runExpectingFailure(t *testing.T, w *World, body func(c *Comm)) *RankFailedError {
	t.Helper()
	var failure *RankFailedError
	func() {
		defer func() {
			e := recover()
			if e == nil {
				t.Fatal("run succeeded, want a rank failure")
			}
			err, ok := e.(error)
			if !ok || !errors.As(err, &failure) {
				t.Fatalf("run panicked with %v, want a *RankFailedError", e)
			}
		}()
		w.Run(body)
	}()
	return failure
}

// countingFault builds a FaultFunc that fires action for rank at its
// call-th occurrence of site, counting occurrences itself like the
// production injector does.
func countingFault(action FaultAction, rank int, site string, call int) FaultFunc {
	var mu sync.Mutex
	calls := map[int]int{}
	return func(r int, s string) (FaultAction, time.Duration) {
		if s != site {
			return FaultNone, 0
		}
		mu.Lock()
		defer mu.Unlock()
		calls[r]++
		if r == rank && calls[r] == call {
			return action, 0
		}
		return FaultNone, 0
	}
}

func TestInjectedKillFailsAllSurvivors(t *testing.T) {
	const p = 4
	w := NewWorld(p)
	w.SetFault(countingFault(FaultKill, 2, "AllReduce", 2))
	w.SetDeadline(5 * time.Second) // backstop: the abort path must win long before this

	iterationsDone := make([]int, p)
	failure := runExpectingFailure(t, w, func(c *Comm) {
		for it := 0; it < 5; it++ {
			c.AllReduce([]float64{float64(c.Rank())})
			iterationsDone[c.Rank()] = it + 1
		}
	})

	if failure.Rank != 2 {
		t.Errorf("failure attributed to rank %d, want 2", failure.Rank)
	}
	if failure.Site != "AllReduce" {
		t.Errorf("failure site %q, want AllReduce", failure.Site)
	}
	if !errors.Is(failure, ErrInjectedKill) {
		t.Errorf("failure cause %v, want ErrInjectedKill", failure.Err)
	}
	if got := iterationsDone[2]; got != 1 {
		t.Errorf("rank 2 completed %d iterations, want exactly 1 before its 2nd AllReduce", got)
	}
}

func TestDropFailsSurvivorsByDeadline(t *testing.T) {
	const p = 3
	w := NewWorld(p)
	w.SetFault(countingFault(FaultDrop, 1, "AllReduce", 1))
	w.SetDeadline(100 * time.Millisecond)

	start := time.Now()
	failure := runExpectingFailure(t, w, func(c *Comm) {
		c.AllReduce([]float64{1})
	})
	if !errors.Is(failure, ErrDeadline) {
		t.Fatalf("failure cause %v, want ErrDeadline", failure.Err)
	}
	// The whole world must resolve in deadline time, not hang: one
	// deadline expiry aborts everyone.
	if el := time.Since(start); el > 5*time.Second {
		t.Fatalf("run took %v to fail; the abort did not propagate", el)
	}
}

func TestDelayInjectionIsHarmless(t *testing.T) {
	const p = 3
	w := NewWorld(p)
	w.SetFault(func(rank int, site string) (FaultAction, time.Duration) {
		if rank == 0 && site == "AllReduce" {
			return FaultDelay, 5 * time.Millisecond
		}
		return FaultNone, 0
	})
	w.Run(func(c *Comm) {
		got := c.AllReduce([]float64{float64(c.Rank())})
		if want := float64(0 + 1 + 2); got[0] != want {
			t.Errorf("rank %d: AllReduce under delay = %v, want %v", c.Rank(), got[0], want)
		}
	})
}

func TestRecvDeadlineIsTyped(t *testing.T) {
	w := NewWorld(2)
	w.SetDeadline(50 * time.Millisecond)
	failure := runExpectingFailure(t, w, func(c *Comm) {
		if c.Rank() == 0 {
			c.recv(1, 7) // rank 1 never sends: a mismatched schedule
		}
	})
	if !errors.Is(failure, ErrDeadline) {
		t.Fatalf("failure cause %v, want ErrDeadline", failure.Err)
	}
	if failure.Rank != 0 {
		t.Errorf("failure attributed to rank %d, want the blocked rank 0", failure.Rank)
	}
	if !strings.Contains(failure.Site, "recv tag") || !strings.Contains(failure.Site, "from rank 1") {
		t.Errorf("failure site %q does not name the blocked receive", failure.Site)
	}
}

func TestSendDeadlineIsTyped(t *testing.T) {
	w := NewWorld(2)
	w.SetDeadline(50 * time.Millisecond)
	failure := runExpectingFailure(t, w, func(c *Comm) {
		if c.Rank() == 0 {
			// Overrun the link buffer against a receiver that never
			// drains; the blocked send must fail typed, not hang.
			for i := 0; i < 64; i++ {
				c.send(1, 7, []float64{1}, CatBcast)
			}
		} else {
			time.Sleep(2 * time.Second)
		}
	})
	if !errors.Is(failure, ErrDeadline) {
		t.Fatalf("failure cause %v, want ErrDeadline", failure.Err)
	}
	if failure.Rank != 0 || !strings.Contains(failure.Site, "send tag") || !strings.Contains(failure.Site, "to rank 1") {
		t.Errorf("failure = rank %d at %q, want rank 0 at the blocked send", failure.Rank, failure.Site)
	}
}

func TestFirstFailureWins(t *testing.T) {
	// Two ranks kill themselves at the same collective; every observer
	// must see one coherent failure (either rank, but a single value).
	w := NewWorld(4)
	w.SetFault(func(rank int, site string) (FaultAction, time.Duration) {
		if site == "AllReduce" && (rank == 1 || rank == 2) {
			return FaultKill, 0
		}
		return FaultNone, 0
	})
	failure := runExpectingFailure(t, w, func(c *Comm) {
		c.AllReduce([]float64{1})
	})
	if failure.Rank != 1 && failure.Rank != 2 {
		t.Errorf("failure attributed to rank %d, want one of the killed ranks", failure.Rank)
	}
	if !errors.Is(failure, ErrInjectedKill) {
		t.Errorf("failure cause %v, want ErrInjectedKill", failure.Err)
	}
}
