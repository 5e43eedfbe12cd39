package mpi

import (
	"errors"
	"fmt"
	"time"
)

// Failure causes carried inside a RankFailedError. Match with
// errors.Is to distinguish an injected death from a deadline expiry or
// an application panic.
var (
	// ErrInjectedKill marks a rank killed by the fault injector
	// (Options.Fault / World.SetFault).
	ErrInjectedKill = errors.New("injected kill")
	// ErrDeadline marks a send or receive that exceeded its
	// per-collective deadline — the failure mode MPI surfaces as a
	// hang, here converted into a typed, attributable error.
	ErrDeadline = errors.New("communication deadline exceeded")
)

// RankFailedError reports the death of one rank to the rest of the
// world: which rank failed, at which call-site, and why. Every
// surviving rank's collective call panics with the same value (the
// runtime's analogue of MPI_ERRORS_RETURN after MPI_Abort), and
// World.Run re-panics with it (World.RunErr returns it), so callers —
// such as core's run loop — can attribute the failure with errors.As.
type RankFailedError struct {
	// Rank is the world rank that failed.
	Rank int
	// Site names the collective call-site where the failure struck
	// (e.g. "AllReduce call 3" or "recv tag 17 from rank 2").
	Site string
	// Err is the underlying cause: ErrInjectedKill, ErrDeadline, or
	// the recovered panic value of the failed rank.
	Err error
}

// Error formats the failure with full rank/site attribution.
func (e *RankFailedError) Error() string {
	return fmt.Sprintf("mpi: rank %d failed at %s: %v", e.Rank, e.Site, e.Err)
}

// Unwrap exposes the cause to errors.Is/errors.As chains.
func (e *RankFailedError) Unwrap() error { return e.Err }

// deadlineError builds the typed error for a blocked point-to-point
// primitive, attributing the stuck rank, the peer, and the tag so a
// hang is debuggable from the error alone.
func deadlineError(rank int, site string, d time.Duration) *RankFailedError {
	return &RankFailedError{
		Rank: rank,
		Site: site,
		Err:  fmt.Errorf("blocked %v (likely a mismatched collective schedule or a dead peer): %w", d, ErrDeadline),
	}
}

// FaultAction is what an injected fault does to the rank that drew it.
type FaultAction int

const (
	// FaultNone lets the collective proceed untouched.
	FaultNone FaultAction = iota
	// FaultDelay stalls the rank for the returned duration before the
	// collective starts (a straggler).
	FaultDelay
	// FaultDrop suppresses every message the rank sends inside this
	// collective; its peers observe silence and fail by deadline.
	FaultDrop
	// FaultKill terminates the rank at the call-site with
	// ErrInjectedKill; survivors fail fast with a RankFailedError.
	FaultKill
)

// String returns the action's spec-string name.
func (a FaultAction) String() string {
	switch a {
	case FaultNone:
		return "none"
	case FaultDelay:
		return "delay"
	case FaultDrop:
		return "drop"
	case FaultKill:
		return "kill"
	default:
		return fmt.Sprintf("FaultAction(%d)", int(a))
	}
}

// FaultFunc is consulted at every collective entry with the calling
// world rank and the collective's category name ("AllReduce",
// "ReduceScatter", ...). It returns the action to inject and, for
// FaultDelay, the stall duration. Implementations count call-sites
// themselves (each rank's collective sequence is deterministic). It
// must be safe for concurrent calls from all rank goroutines.
type FaultFunc func(rank int, site string) (FaultAction, time.Duration)
