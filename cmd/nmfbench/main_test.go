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
		{"-kernels", "-threads", "zero"},
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

// -kernels prints the documented table, and with -json writes a
// versioned KernelReport (the BENCH_kernels.json format).
func TestBenchKernelsReport(t *testing.T) {
	small := []string{"-kernels", "-scale", "0.02", "-k", "4", "-reps", "1", "-threads", "1"}
	var out, errb bytes.Buffer
	if err := run(small, &out, &errb); err != nil {
		t.Fatalf("run(%v): %v", small, err)
	}
	for _, want := range []string{"Kernel micro-benchmarks", "MulAtB", "HPC2Dwebbase"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("kernel table missing %q:\n%s", want, out.String())
		}
	}
	path := filepath.Join(t.TempDir(), "kernels.json")
	if err := run(append(small, "-json", path), &out, &errb); err != nil {
		t.Fatal(err)
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
		t.Fatalf("kernel report is not valid JSON: %v", err)
	}
	if rep.Version < 1 || len(rep.Rows) == 0 {
		t.Errorf("kernel report empty or unversioned: version=%d rows=%d", rep.Version, len(rep.Rows))
	}
}
