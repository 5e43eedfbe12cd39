package core

import (
	"fmt"

	"hpcnmf/internal/mat"
	"hpcnmf/internal/nnls"
	"hpcnmf/internal/par"
	"hpcnmf/internal/perf"
)

// Updater is the algorithm plug-in seam of the MPI-FAUN framework
// (DESIGN decision 14, after Kannan–Ballard–Park's follow-up): any
// alternating-updating NMF method drops into the shared communication
// skeleton by supplying only the local factor update. The skeleton
// and its layouts (skeleton.go) own the collectives, the Gram and
// cross-product pipeline, workspace arenas, checkpointing, fault
// sites, and tracing; the updater sees
// exactly the two matrices the ANLS normal equations need and the
// iterate to advance.
//
// An Updater is an nnls.Solver, so every built-in solver is one as it
// stands. The skeleton calls SolveCtx(ctx, gram, rhs, x, x): it
// advances x (k×r) in place given the k×k Gram matrix and the k×r
// right-hand side of the current half-step — for the W half gram = HHᵀ
// and rhs = (AHᵀ)ᵀ with x = Wᵀ; for the H half gram = WᵀW and rhs =
// WᵀA with x = H. Regularization is already folded into gram and rhs
// when configured. gram and rhs are read-only and only valid for the
// duration of the call. All temporaries must come from ctx so
// steady-state iterations stay allocation-free. Name identifies the
// update rule in reports and checkpoints ("BPP", "MU", ...); resuming
// a checkpoint requires the same name.
//
// An updater may be handed any subset of the half-step's columns — the
// rows of W one rank owns, the rows under one out-of-core tile — and
// must give each column the result it would get in any other subset:
// column j of x may depend on gram and on column j of rhs and of the
// warm start, never on its neighbours or on r. The NLS problems of a
// half-step are independent (§4) and every built-in rule solves them
// so; the layouts agree with each other, and a streamed fit with the
// in-core one, bit for bit because of it.
//
// An updater instance is created per rank goroutine (see
// Options.Update) and is never called concurrently, so it may keep
// working sets across calls, as BPP does.
type Updater = nnls.Solver

// newUpdater instantiates this rank's updater: the Options.Update
// factory when set, else a fresh Options.Solver.
func (o Options) newUpdater() Updater {
	if o.Update != nil {
		return o.Update()
	}
	return o.Solver.New(o.Sweeps)
}

// updaterName is the updater identity recorded in checkpoints and
// reports (and validated on resume), without holding an instance.
func (o Options) updaterName() string {
	if o.Update != nil {
		return o.Update().Name()
	}
	return o.Solver.String()
}

// updateEnv is the one code path of every factor update
// (rankState.step's two calls): fold regularization in, time the
// update under TaskNLS, return workspace temporaries, account flops and
// solver inner iterations, and refuse an iterate that went
// non-finite. One env per rank goroutine, like the updater it owns.
type updateEnv struct {
	up  Updater
	ctx *nnls.Context
	ws  *mat.Workspace
	led *rankBooks
}

// newUpdateEnv builds a rank's update environment over its workspace
// arena and the run's shared kernel pool.
func newUpdateEnv(opts Options, ws *mat.Workspace, pool *par.Pool, led *rankBooks) updateEnv {
	return updateEnv{
		up:  opts.newUpdater(),
		ctx: &nnls.Context{WS: ws, Pool: pool},
		ws:  ws,
		led: led,
	}
}

// updateFactor runs one half-step's local update x ← up(gram, rhs, x)
// with regularization (l2, l1) applied. which names the factor ("W",
// "H") in the error a non-finite iterate returns; the iterate may be
// stored transposed — finiteness is layout-independent.
func (e *updateEnv) updateFactor(which string, gram, rhs, x *mat.Dense, l2, l1 float64) error {
	g, f, gTmp, fTmp := applyRegInto(e.ws, gram, rhs, l2, l1)
	ps := e.led.Start(perf.TaskNLS)
	st, err := e.up.SolveCtx(e.ctx, g, f, x, x)
	e.led.Stop(ps, st.Flops)
	e.ws.Put(gTmp)
	e.ws.Put(fTmp)
	if err != nil {
		return err
	}
	e.led.observeNLS(st)
	ps = e.led.StartQuiet(perf.TaskOther)
	if !x.IsFinite() {
		err = fmt.Errorf("core: factor %s became non-finite: A holds a NaN or ±Inf entry, or the local NLS solver diverged", which)
	}
	e.led.Stop(ps, 0)
	return err
}
