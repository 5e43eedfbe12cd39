package core

import (
	"fmt"

	"hpcnmf/internal/mpi"
)

// safely runs fn, converting a panic (e.g. a rank failure inside
// mpi.World.Run) into an error so the public Run functions keep the
// usual Go error contract. A typed failure — mpi.RankFailedError —
// is preserved in the chain, so callers can attribute the dead rank
// and the cause with errors.As/errors.Is.
func safely(fn func()) (err error) {
	defer func() {
		if e := recover(); e != nil {
			if ee, ok := e.(error); ok {
				err = fmt.Errorf("core: parallel run failed: %w", ee)
			} else {
				err = fmt.Errorf("core: parallel run failed: %v", e)
			}
		}
	}()
	fn()
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
