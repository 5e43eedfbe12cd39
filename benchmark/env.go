package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// env is what one --workload run carries around: its arguments, the
// span recorder (nil when untraced), the metrics emitted so far and
// the count of operations attempted and failed.
type env struct {
	cfg    config
	rec    *recorder
	cur    *span // the phase in progress: parent of the workload's spans
	tmp    string
	outDir string

	units   map[string]string // the metrics this run must emit, by name
	metrics map[string]metricValue
	samples map[string]summary

	attempted, failed atomic.Int64

	mu       sync.Mutex
	failures []string // first few failure messages, for the result file
	problems []string // benchmark-level faults: wrong or missing metric names
}

func newEnv(c config, sp *spec) (*env, error) {
	e := &env{
		cfg:     c,
		units:   map[string]string{},
		metrics: map[string]metricValue{},
		samples: map[string]summary{},
	}
	defs := sp.EndToEnd
	if c.trace {
		defs = sp.PerLayer
		e.rec = newRecorder(c.workload)
	}
	for _, d := range defs {
		if !nameRE.MatchString(d.Name) {
			return nil, fmt.Errorf("BENCHMARK.json: bad metric name %q", d.Name)
		}
		e.units[d.Name] = d.Unit
	}
	// Scratch files (tile file, model store) stay inside the checkout.
	base := filepath.Join(c.root, ".bench_build", "tmp")
	if err := os.MkdirAll(base, 0o755); err != nil {
		return nil, err
	}
	tmp, err := os.MkdirTemp(base, c.workload+"-")
	if err != nil {
		return nil, err
	}
	e.tmp = tmp
	e.outDir = filepath.Join(c.root, "benchmark", "out")
	return e, os.MkdirAll(e.outDir, 0o755)
}

func (e *env) close() { os.RemoveAll(e.tmp) }

// settle returns freed memory to the OS between phases, so that one
// phase's garbage is neither collected on the next phase's clock nor
// counted in its resident set.
func settle() {
	runtime.GC()
	debug.FreeOSMemory()
}

// set emits one metric. Emitting a name this run does not declare, or
// one name twice, is a fault of the benchmark and fails the run.
func (e *env) set(name string, v float64) {
	e.mu.Lock()
	defer e.mu.Unlock()
	unit, ok := e.units[name]
	switch {
	case !ok:
		e.problems = append(e.problems, "metric "+name+" is not declared in BENCHMARK.json for this mode")
	case e.has(name):
		e.problems = append(e.problems, "metric "+name+" emitted twice")
	default:
		e.metrics[name] = metricValue{Value: v, Unit: unit}
	}
}

func (e *env) has(name string) bool { _, ok := e.metrics[name]; return ok }

// sample emits the median of xs and keeps the sample's count and
// quartiles for the printed table and the result file.
func (e *env) sample(name string, xs []float64) {
	s := summarize(xs)
	e.set(name, s.Median)
	e.keep(name, s)
}

// best emits the best of xs — the smallest, or the largest when
// higher is better — and keeps the whole sample like sample does.
// In-process compute timings are reported this way. This host runs the
// same code up to 1.8x slower for seconds at a time (another guest on
// the core's second hardware thread), which only ever adds time: over
// ten runs of each workload the best of a dozen fits repeated within
// 4-9%, their median within 6-24% (README "Steadiness").
func (e *env) best(name string, xs []float64, higherIsBetter bool) {
	s := summarize(xs)
	if higherIsBetter {
		e.set(name, s.Max)
	} else {
		e.set(name, s.Min)
	}
	e.keep(name, s)
}

func (e *env) keep(name string, s summary) {
	e.mu.Lock()
	e.samples[name] = s
	e.mu.Unlock()
}

// offPath emits 0 for every still-unset per-layer metric that is named
// or belongs to a named layer: the workload never calls that code, so
// zero work done is the measurement (README "Structural zeros").
func (e *env) offPath(layersOrNames ...string) {
	for name := range e.units {
		for _, l := range layersOrNames {
			if (name == l || strings.HasPrefix(name, l+".")) && !e.has(name) {
				e.set(name, 0)
			}
		}
	}
}

// attempt counts operations whose outcome feeds the failure count.
func (e *env) attempt(n int) { e.attempted.Add(int64(n)) }

// fail records one failed operation.
func (e *env) fail(format string, args ...any) {
	e.failed.Add(1)
	e.mu.Lock()
	if len(e.failures) < 20 {
		e.failures = append(e.failures, fmt.Sprintf(format, args...))
	}
	e.mu.Unlock()
}

// check is one output check: an attempted operation that fails when
// ok is false.
func (e *env) check(ok bool, format string, args ...any) {
	e.attempt(1)
	if !ok {
		e.fail(format, args...)
	}
}

// result assembles the run's last output line. correct means every
// output check passed and the run emitted exactly the metrics
// BENCHMARK.json declares for its mode.
func (e *env) result() *result {
	e.mu.Lock()
	defer e.mu.Unlock()
	for name := range e.units {
		if !e.has(name) {
			e.problems = append(e.problems, "metric "+name+" was not emitted")
		}
	}
	sort.Strings(e.problems)
	return &result{
		Correct:   e.failed.Load() == 0 && len(e.problems) == 0,
		Attempted: max(e.attempted.Load(), 1),
		Failed:    e.failed.Load(),
		Metrics:   e.metrics,
	}
}

// print writes the human-readable table: every metric by name with its
// unit and, for timed samples, count, median and quartiles.
func (e *env) print(w io.Writer, host hostStamp) {
	mode := "end-to-end (untraced)"
	if e.cfg.trace {
		mode = "per-layer (traced run)"
	}
	fmt.Fprintf(w, "\n== %s  seed=%d  seconds=%d  %s ==\n", e.cfg.workload, e.cfg.seed, e.cfg.seconds, mode)
	fmt.Fprintf(w, "host: %s, nproc=%d GOMAXPROCS=%d, isa=%s, %s, kernel %s, LLC %d MiB, commit %s\n",
		host.CPU, host.NProc, host.GOMAXPROCS, host.ISA, host.GoVersion, host.Kernel, host.LLCBytes>>20, host.GitCommit)
	if !host.WallClockValid {
		fmt.Fprintf(w, "WALL-CLOCK RESULTS INVALID: fewer than 2 CPUs\n")
	}
	names := make([]string, 0, len(e.metrics))
	for n := range e.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "  %-32s %16s %-8s %s\n", "metric", "value", "unit", "sample")
	for _, n := range names {
		m := e.metrics[n]
		line := fmt.Sprintf("  %-32s %16.6g %-8s", n, m.Value, m.Unit)
		if s, ok := e.samples[n]; ok {
			line += fmt.Sprintf(" n=%d median=%.6g q1=%.6g q3=%.6g", s.N, s.Median, s.Q1, s.Q3)
		}
		fmt.Fprintln(w, line)
	}
	fmt.Fprintf(w, "  operations: attempted=%d failed=%d\n", e.attempted.Load(), e.failed.Load())
	for _, f := range e.failures {
		fmt.Fprintf(w, "  FAILED: %s\n", f)
	}
	for _, p := range e.problems {
		fmt.Fprintf(w, "  BENCHMARK FAULT: %s\n", p)
	}
	if e.rec != nil {
		e.rec.printSelfTimes(w)
	}
}

// writeFiles leaves the host-stamped result (and, for the traced run,
// the span file) under benchmark/out/.
func (e *env) writeFiles(host hostStamp, res *result) error {
	suffix := ""
	if e.cfg.trace {
		suffix = "-trace"
		if err := e.rec.writeChrome(filepath.Join(e.outDir, "trace-"+e.cfg.workload+".json")); err != nil {
			return err
		}
	}
	doc := map[string]any{
		"workload": e.cfg.workload,
		"seed":     e.cfg.seed,
		"seconds":  e.cfg.seconds,
		"smoke":    e.cfg.smoke,
		"host":     host,
		"result":   res,
		"samples":  e.samples,
		"failures": e.failures,
		"problems": e.problems,
	}
	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(e.outDir, "result-"+e.cfg.workload+suffix+".json"), append(b, '\n'), 0o644)
}
