package experiments

import (
	"bytes"
	"flag"
	"os"
	"regexp"
	"runtime"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata golden files")

// Wall-clock cells are the only nondeterministic bytes the harness
// prints: the measured column of grids, hadoopqual's measured line and
// the measured_total field (the twelfth) of a CSV row.
var (
	gridsMeasured  = regexp.MustCompile(`(?m)^(\d+x\d+ +\S+ +\S+ +)\S+`)
	hadoopMeasured = regexp.MustCompile(`(?m)^(per-iteration measured time: ).*$`)
	csvMeasured    = regexp.MustCompile(`(?m)^((?:[^,\n]*,){11})[^,\n]*`)
)

// TestTinyGolden runs every experiment at a tiny scale — as text, and
// the figure sweeps again as nine-digit CSV — and compares the output,
// wall-clock cells masked, with the record taken before the harness
// became one table. Regenerate with
// `go test ./internal/experiments -run TestTinyGolden -update` only when
// an experiment's output is meant to change.
func TestTinyGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("golden recorded on amd64; other targets may fuse multiply-adds")
	}
	cfg := Config{Scale: 0.1, Seed: 42, Iters: 2, FixedP: 8, FixedK: 8, Ks: []int{4, 8}, Ps: []int{4, 8}}
	var got bytes.Buffer
	for i, id := range Names() {
		if i > 0 {
			got.WriteByte('\n')
		}
		var buf bytes.Buffer
		if err := Run(id, cfg, &buf); err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		out := buf.Bytes()
		switch id {
		case "grids":
			out = gridsMeasured.ReplaceAll(out, []byte("${1}<measured>"))
		case "hadoopqual":
			out = hadoopMeasured.ReplaceAll(out, []byte("${1}<measured>"))
		}
		got.Write(out)
	}
	cfg.View = "csv"
	for _, id := range Names() {
		if !strings.HasPrefix(id, "fig") {
			continue
		}
		var buf bytes.Buffer
		if err := Run(id, cfg, &buf); err != nil {
			t.Fatalf("%s csv: %v", id, err)
		}
		got.WriteString("\n-- " + id + " csv --\n")
		got.Write(csvMeasured.ReplaceAll(buf.Bytes(), []byte("${1}<measured>")))
	}
	const path = "testdata/tiny.golden.txt"
	if *updateGolden {
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("experiment text differs from %s (rerun with -update only if the change is intended)\ngot:\n%s", path, got.Bytes())
	}
}
