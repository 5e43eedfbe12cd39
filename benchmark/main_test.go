package main

import (
	"bytes"
	"regexp"
	"strings"
	"testing"
)

// TestSpecWithinContract holds BENCHMARK.json to the limits of the
// driver's contract that a typo would break.
func TestSpecWithinContract(t *testing.T) {
	sp, err := loadSpec("..")
	if err != nil {
		t.Fatal(err)
	}
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	name := func(n string) {
		t.Helper()
		if !nameRE.MatchString(n) {
			t.Errorf("name %q: want a letter or digit, then at most 63 of [A-Za-z0-9_.-]", n)
		}
		if seen[n] {
			t.Errorf("name %q used twice", n)
		}
		seen[n] = true
	}
	if n := len(sp.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2..8", n)
	}
	for _, w := range sp.Workloads {
		name(w.Name)
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("workload %q is declared but not implemented", w.Name)
		}
		if _, ok := offPath[w.Name]; !ok {
			t.Errorf("workload %q has no off-path table", w.Name)
		}
		if len(w.Why) == 0 || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %q: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	hasSetup := false
	for _, m := range sp.EndToEnd {
		name(m.Name)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		hasSetup = hasSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !hasSetup {
		t.Error("end_to_end lacks setup_s (unit s, lower is better)")
	}
	if n := len(sp.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}
	for _, m := range append(sp.EndToEnd, sp.PerLayer...) {
		if !unit.MatchString(m.Unit) {
			t.Errorf("%s: unit %q", m.Name, m.Unit)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("%s: better %q", m.Name, m.Better)
		}
	}
	for _, m := range sp.PerLayer {
		name(m.Name)
	}
	if sp.RunSeconds < 1 || sp.RunSeconds > 60 {
		t.Errorf("run_seconds %d outside 1..60", sp.RunSeconds)
	}
}

// TestSmoke runs every workload in both modes at --smoke size and
// checks the run's last output line against BENCHMARK.json: each
// declared metric exactly once with its unit, nothing undeclared, no
// failed operation, end-to-end metrics never zero, and per-layer zeros
// exactly where the off-path table says the layer is not called.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("boots a fleet and runs twelve small fits per workload")
	}
	sp, err := loadSpec("..")
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range sp.Workloads {
		for _, trace := range []bool{false, true} {
			mode, defs := "end_to_end", sp.EndToEnd
			if trace {
				mode, defs = "per_layer", sp.PerLayer
			}
			t.Run(w.Name+"/"+mode, func(t *testing.T) {
				var out bytes.Buffer
				c := config{root: "..", workload: w.Name, seed: 3, seconds: 1, trace: trace, smoke: true}
				if err := run(c, false, &out); err != nil {
					t.Fatalf("%v\n%s", err, out.String())
				}
				res, err := lastResult(out.Bytes())
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("correct=%v attempted=%d failed=%d\n%s", res.Correct, res.Attempted, res.Failed, out.String())
				}
				if len(res.Metrics) != len(defs) {
					t.Errorf("%d metrics emitted, %d declared", len(res.Metrics), len(defs))
				}
				for _, d := range defs {
					m, ok := res.Metrics[d.Name]
					if !ok {
						t.Errorf("%s not emitted", d.Name)
						continue
					}
					if m.Unit != d.Unit {
						t.Errorf("%s: unit %q, declared %q", d.Name, m.Unit, d.Unit)
					}
					off := false
					for _, l := range offPath[w.Name] {
						off = off || d.Name == l || strings.HasPrefix(d.Name, l+".")
					}
					switch {
					case !trace && m.Value <= 0:
						t.Errorf("%s = %v: an end-to-end metric is never zero", d.Name, m.Value)
					case off && m.Value != 0:
						t.Errorf("%s = %v on a workload that does not call it", d.Name, m.Value)
					}
				}
			})
		}
	}
}

func TestSelfTimeSubtractsOverlappingChildrenOnce(t *testing.T) {
	kids := []spanRec{{start: 10, end: 30}, {start: 20, end: 50}, {start: 70, end: 120}}
	if got := covered(kids, 0, 100); got != 70 {
		t.Errorf("covered = %d, want 70 (10..50 and 70..100)", got)
	}
}

func TestPercentileIsNearestRank(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if got := percentile(xs, 0.95); got != 10 {
		t.Errorf("p95 of 1..10 = %v, want 10", got)
	}
	if got := percentile(xs, 0.5); got != 5 {
		t.Errorf("p50 of 1..10 = %v, want 5", got)
	}
	if got := quantile(xs, 0.5); got != 5.5 {
		t.Errorf("median of 1..10 = %v, want 5.5", got)
	}
}
