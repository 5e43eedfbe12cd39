package main

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"hpcnmf"
	"hpcnmf/internal/mat"
)

// fitSeed seeds the program's own factor initialisation. It is a
// constant: --seed reaches the input generators only, and the program
// sees generated inputs, never the seed's meaning.
const fitSeed = 7

// fitCase is what a fit workload's setup leaves behind: the input in
// core, the three arms that factorize it, and a pool of columns to
// project onto the fitted basis.
type fitCase struct {
	opts  hpcnmf.Options // without KernelThreads; the arms set it
	a     hpcnmf.Matrix  // the in-core input (fit_seq_s factorizes it)
	dense *mat.Dense     // a's storage when it is dense, else nil
	mono  bool           // the update rule promises a non-increasing error
	arms  [3]fitArm      // fit_s (headline), fit_seq_s, fit_kt_s
	cols  []*mat.Dense   // m×1 columns for the projection phase
	// twoRank says the headline arm runs on two ranks, so mpi and
	// scaling metrics apply.
	twoRank bool
	prod    products // the two data-matrix products, for the re-enactment
	genS    float64  // datasets.gen_s of the last setup
}

type fitArm struct {
	metric string
	run    func(o hpcnmf.Options) (*hpcnmf.Result, error)
}

// minRounds is the least number of fits per arm behind a reported
// time, however slow the host: the issue's floor.
const minRounds = 5

// projectBurst is how long each round's projection burst lasts.
const projectBurst = 150 * time.Millisecond

// measure is the untraced timed section of a fit workload: rounds of
// one fit per arm and one burst of single-column projections onto the
// round's fitted basis, until the budget is used. Fits and projections
// alternate so that every metric samples the whole section: the host's
// speed changes by up to 1.8x for seconds at a time, and a metric
// measured in one block of the section would read whichever speed that
// block happened to get.
func (fc *fitCase) measure(e *env, budget time.Duration) error {
	rounds := minRounds
	if e.cfg.smoke {
		rounds = 2
	}
	var times, finals [3][]float64
	var p50s, rates []float64
	start := time.Now()
	for r := 0; ; r++ {
		elapsed := time.Since(start)
		if r >= rounds && elapsed+elapsed/time.Duration(r) > budget {
			break
		}
		var basis *mat.Dense
		for i, arm := range fc.arms {
			res, dt := fc.timedFit(e, arm, fc.opts, r)
			if res == nil {
				continue
			}
			times[i] = append(times[i], dt)
			finals[i] = append(finals[i], res.RelErr[len(res.RelErr)-1])
			if i == 0 {
				basis = res.W
			}
		}
		if basis != nil {
			lat := fc.project(e, basis, projectBurst, r)
			p50s = append(p50s, 1e3*percentile(lat, 0.50))
			rates = append(rates, float64(len(lat))/projectBurst.Seconds())
		}
	}
	for i, arm := range fc.arms {
		if len(times[i]) == 0 {
			return fmt.Errorf("arm %s: every fit failed", arm.metric)
		}
		e.best(arm.metric, times[i], false)
		for _, f := range finals[i] {
			e.check(f == finals[i][0], "%s: final error differs between repetitions: %v vs %v", arm.metric, f, finals[i][0])
		}
		e.check(math.Abs(finals[i][0]-finals[0][0]) <= 1e-9,
			"%s: final error %v differs from the headline arm's %v by more than 1e-9", arm.metric, finals[i][0], finals[0][0])
	}
	if len(p50s) == 0 {
		return fmt.Errorf("no projection burst ran")
	}
	e.best("project_rps", rates, true)
	e.best("project_p50_ms", p50s, false)
	return nil
}

// timedFit runs one arm once and checks its output. A failed fit (an
// error or a failed output check) is counted and returns nil.
func (fc *fitCase) timedFit(e *env, arm fitArm, o hpcnmf.Options, rep int) (*hpcnmf.Result, float64) {
	runtime.GC() // the previous fit's garbage is not this fit's cost
	sp := e.rec.begin("fit/"+arm.metric, e.cur, rep)
	t := time.Now()
	res, err := arm.run(o)
	dt := time.Since(t).Seconds()
	sp.end()
	e.attempt(1)
	if err != nil {
		e.fail("%s: %v", arm.metric, err)
		return nil, dt
	}
	if msg := fc.checkFit(res, o); msg != "" {
		e.fail("%s: %s", arm.metric, msg)
		return nil, dt
	}
	return res, dt
}

// checkFit is the output check of one fit: factors of the right shape,
// finite and non-negative; a full error history; and, for MU, an error
// that never rises.
func (fc *fitCase) checkFit(res *hpcnmf.Result, o hpcnmf.Options) string {
	m, n := fc.a.Dims()
	switch {
	case res.W == nil || res.H == nil:
		return "missing factor"
	case res.W.Rows != m || res.W.Cols != o.K || res.H.Rows != o.K || res.H.Cols != n:
		return fmt.Sprintf("factor shapes %dx%d, %dx%d", res.W.Rows, res.W.Cols, res.H.Rows, res.H.Cols)
	case !res.W.IsFinite() || !res.H.IsFinite():
		return "non-finite factor"
	case res.W.Min() < 0 || res.H.Min() < 0:
		return "negative factor entry"
	case res.Iterations != o.MaxIter || len(res.RelErr) != o.MaxIter:
		return fmt.Sprintf("%d iterations, %d errors, want %d", res.Iterations, len(res.RelErr), o.MaxIter)
	}
	for i, v := range res.RelErr {
		if math.IsNaN(v) || v < 0 {
			return fmt.Sprintf("relative error %v at iteration %d", v, i)
		}
		if fc.mono && i > 0 && v > res.RelErr[i-1]*(1+1e-12) {
			return fmt.Sprintf("MU error rose at iteration %d: %v -> %v", i, res.RelErr[i-1], v)
		}
	}
	return ""
}

// project projects single columns onto basis w through the facade
// Projector (BPP), one after the other on the calling goroutine — the
// library user's closed loop — for d, and returns the sorted latencies
// in seconds. Every projection is checked: k non-negative coefficients
// and a finite residual.
func (fc *fitCase) project(e *env, w *mat.Dense, d time.Duration, rep int) []float64 {
	sp := e.rec.begin("project/burst", e.cur, rep)
	defer sp.end()
	p, err := hpcnmf.NewProjector(w, hpcnmf.SolverBPP, 0)
	if err != nil {
		e.check(false, "projector: %v", err)
		return nil
	}
	dst := mat.NewDense(w.Cols, 1)
	resid := make([]float64, 1)
	var lat []float64
	for i, start := 0, time.Now(); time.Since(start) < d; i++ {
		t := time.Now()
		_, err := p.ProjectInto(dst, fc.cols[i%len(fc.cols)], resid)
		lat = append(lat, time.Since(t).Seconds())
		e.check(err == nil && dst.Min() >= 0 && dst.IsFinite() && !math.IsNaN(resid[0]) && !math.IsInf(resid[0], 0),
			"projection %d: err=%v min=%v resid=%v", i, err, dst.Min(), resid[0])
	}
	return sortedCopy(lat)
}

// denseColumns copies n evenly spaced columns of a as m×1 matrices.
func denseColumns(a *mat.Dense, n int) []*mat.Dense {
	cols := make([]*mat.Dense, n)
	for c := range cols {
		j := c * a.Cols / n
		col := mat.NewDense(a.Rows, 1)
		for i := 0; i < a.Rows; i++ {
			col.Data[i] = a.At(i, j)
		}
		cols[c] = col
	}
	return cols
}

// warm runs every arm for one iteration, so that the first timed fit
// does not pay for page faults on fresh buffers. It is part of setup.
func (fc *fitCase) warm(e *env) error {
	sp := e.rec.begin("setup/warm-up", e.cur, 0)
	defer sp.end()
	o := fc.opts
	o.MaxIter = 1
	for _, arm := range fc.arms {
		if _, err := arm.run(o); err != nil {
			return fmt.Errorf("warm-up %s: %w", arm.metric, err)
		}
	}
	return nil
}

func withThreads(o hpcnmf.Options, t int) hpcnmf.Options {
	o.KernelThreads = t
	return o
}

// inCoreArms are the arms of a workload whose input is an in-core
// matrix: two ranks with auto-grid (headline), one rank one thread,
// one rank two kernel threads.
func inCoreArms(a hpcnmf.Matrix) [3]fitArm {
	return [3]fitArm{
		{"fit_s", func(o hpcnmf.Options) (*hpcnmf.Result, error) { return hpcnmf.RunParallel(a, 2, withThreads(o, 1)) }},
		{"fit_seq_s", func(o hpcnmf.Options) (*hpcnmf.Result, error) { return hpcnmf.Run(a, withThreads(o, 1)) }},
		{"fit_kt_s", func(o hpcnmf.Options) (*hpcnmf.Result, error) { return hpcnmf.Run(a, withThreads(o, 2)) }},
	}
}
