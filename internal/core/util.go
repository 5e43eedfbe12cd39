package core

import (
	"fmt"

	"hpcnmf/internal/mpi"
)

// runWorld runs body on every rank of w and returns a rank failure as
// an error, so the public Run functions keep the usual Go error
// contract. The mpi.RankFailedError and its cause stay in the chain,
// so callers can attribute the dead rank and the cause with
// errors.As/errors.Is.
func runWorld(w *mpi.World, body func(c *mpi.Comm)) error {
	if err := w.RunErr(body); err != nil {
		return fmt.Errorf("core: parallel run failed: %w", err)
	}
	return nil
}

// configureWorld applies the robustness options to a run's world: the
// fault injector and the per-collective communication
// deadline.
func configureWorld(w *mpi.World, opts Options) {
	if opts.Fault != nil {
		w.SetFault(opts.Fault.Hook())
	}
	if opts.CommDeadline > 0 {
		w.SetDeadline(opts.CommDeadline)
	} else if opts.CommDeadline < 0 {
		w.SetDeadline(0)
	}
}
