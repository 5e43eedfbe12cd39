// Command mutants is the mutant gate: for each row of its table it
// writes a copy of one source file with one edit applied, builds the
// row's package tests with that copy swapped in through go test
// -overlay (the tree itself is never touched), and requires a test the
// row names to fail. Run it from the module root:
//
//	go run ./tools/mutants
//
// It exits 1 if any mutant survives, if a row's From text no longer
// occurs exactly once in its file (the row is stale), or if go test
// fails without a failing test (the mutant did not build, or hung). A
// row whose ISA this CPU cannot run is checked for staleness and
// skipped.
package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"time"

	"hpcnmf/internal/mat"
)

func main() {
	root, err := os.Getwd()
	if err != nil {
		fatal(err)
	}
	if _, err := os.Stat(filepath.Join(root, "go.mod")); err != nil {
		fatal(fmt.Errorf("run from the module root: %w", err))
	}
	tmp, err := os.MkdirTemp("", "mutants")
	if err != nil {
		fatal(err)
	}
	defer os.RemoveAll(tmp)

	failed, skipped := 0, 0
	start := time.Now()
	for i, m := range table {
		t0 := time.Now()
		verdict, err := apply(root, filepath.Join(tmp, fmt.Sprint(i)), m)
		switch {
		case err != nil:
			failed++
			verdict = "FAILED: " + err.Error()
		case verdict != "killed":
			skipped++
		}
		fmt.Printf("%-32s %-8s %5.1fs\n", m.Name, verdict, time.Since(t0).Seconds())
	}
	fmt.Printf("%d of %d mutants killed, %d skipped, in %.1fs\n", len(table)-failed-skipped, len(table), skipped, time.Since(start).Seconds())
	if failed > 0 {
		os.Exit(1)
	}
}

// apply runs one row in its own scratch directory dir and returns
// "killed", "skipped (no <isa>)", or an error saying why the row does
// not hold.
func apply(root, dir string, m mutant) (string, error) {
	path := filepath.Join(root, m.File)
	src, err := os.ReadFile(path)
	if err != nil {
		return "", err
	}
	if n := bytes.Count(src, []byte(m.From)); n != 1 {
		return "", fmt.Errorf("%q occurs %d times in %s, want once", m.From, n, m.File)
	}
	if m.ISA != "" && !slices.Contains(mat.SupportedISAs(), m.ISA) {
		return "skipped (no " + m.ISA + ")", nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	mutated := filepath.Join(dir, filepath.Base(m.File))
	if err := os.WriteFile(mutated, bytes.Replace(src, []byte(m.From), []byte(m.To), 1), 0o644); err != nil {
		return "", err
	}
	overlay, err := json.Marshal(map[string]map[string]string{"Replace": {path: mutated}})
	if err != nil {
		return "", err
	}
	ov := filepath.Join(dir, "overlay.json")
	if err := os.WriteFile(ov, overlay, 0o644); err != nil {
		return "", err
	}
	cmd := exec.Command("go", "test", "-count=1", "-timeout=120s", "-overlay="+ov, "-run="+m.Run, m.Pkg)
	cmd.Dir = root
	out, err := cmd.CombinedOutput()
	switch {
	case err == nil:
		return "", fmt.Errorf("survived: %s -run %q passed", m.Pkg, m.Run)
	case !bytes.Contains(out, []byte("--- FAIL")):
		return "", fmt.Errorf("go test failed without a failing test:\n%s", out)
	}
	return "killed", nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "mutants:", err)
	os.Exit(1)
}
