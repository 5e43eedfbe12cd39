package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestBenchFlagValidation(t *testing.T) {
	var out, errb bytes.Buffer
	cases := [][]string{
		{"-ks", "10,froggy"},
		{"-ps", "0"},
		{"-exp", "not-an-experiment", "-scale", "0.05"},
		{"stray-arg"},
		{"-not-a-flag"},
	}
	for _, args := range cases {
		if err := run(args, &out, &errb); err == nil {
			t.Errorf("run(%v) succeeded, want error", args)
		}
	}
}

func TestBenchFigureSmoke(t *testing.T) {
	var out, errb bytes.Buffer
	args := []string{"-exp", "fig3a", "-scale", "0.05", "-iters", "1", "-ks", "4", "-ps", "4"}
	if err := run(args, &out, &errb); err != nil {
		t.Fatalf("run(%v): %v", args, err)
	}
	if !strings.Contains(out.String(), "fig3a") {
		t.Errorf("output missing experiment header:\n%s", out.String())
	}
}

func TestBenchJSONReport(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "bench.json")
	var out, errb bytes.Buffer
	args := []string{"-exp", "fig3a", "-scale", "0.05", "-iters", "1", "-ks", "4", "-ps", "4", "-json", path}
	if err := run(args, &out, &errb); err != nil {
		t.Fatalf("run(%v): %v", args, err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var rep struct {
		Version int              `json:"version"`
		Rows    []map[string]any `json:"rows"`
	}
	if err := json.Unmarshal(raw, &rep); err != nil {
		t.Fatalf("bench report is not valid JSON: %v", err)
	}
	if rep.Version < 1 || len(rep.Rows) == 0 {
		t.Errorf("bench report empty or unversioned: version=%d rows=%d", rep.Version, len(rep.Rows))
	}
}

// The kernel micro-benchmarks and the out-of-core driver left this
// command (benchmark/ measures both): the flag is unknown, and the
// experiment error names what is left.
func TestBenchRetiredSurfaces(t *testing.T) {
	var out, errb bytes.Buffer
	err := run([]string{"-kernels"}, &out, &errb)
	if err == nil || !strings.Contains(err.Error(), "flag provided but not defined: -kernels") {
		t.Errorf("run(-kernels) = %v, want an unknown-flag error", err)
	}
	err = run([]string{"-exp", "ooc", "-scale", "0.05"}, &out, &errb)
	if err == nil {
		t.Fatal("run(-exp ooc) succeeded, want unknown experiment")
	}
	for _, want := range []string{`unknown experiment "ooc"`, "fig3a", "table2", "solvers"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("run(-exp ooc) error %q does not name %q", err, want)
		}
	}
	if strings.Contains(err.Error(), "solvers, ooc") {
		t.Errorf("run(-exp ooc) error still lists ooc as known: %v", err)
	}
}
