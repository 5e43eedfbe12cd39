// Command nmfbench regenerates the paper's evaluation artifacts
// (Figures 3a–3h, Tables 2 and 3, and the §6.2 Hadoop comparison) on
// the simulated cluster. See DESIGN.md for the experiment index.
//
// Usage:
//
//	nmfbench -exp fig3a            # one experiment
//	nmfbench -exp fig3a,fig3b     # several
//	nmfbench -exp all             # everything (minutes at full scale)
//	nmfbench -exp all -scale 0.25 # quick pass
//
// Output columns are per-iteration seconds per task in the α-β-γ
// modeled view by default (-view measured|modeled|both).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"hpcnmf/internal/experiments"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintf(os.Stderr, "nmfbench: %v\n", err)
		os.Exit(1)
	}
}

// run is the whole command behind a testable seam: flags come from
// args, output goes to the writers, and failures are returned instead
// of exiting the process.
func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("nmfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		exp   = fs.String("exp", "all", "experiment id(s), comma-separated, or 'all': "+strings.Join(experiments.Names(), ", "))
		scale = fs.Float64("scale", 1.0, "dataset scale factor (1.0 = paper-shaped defaults)")
		iters = fs.Int("iters", 3, "alternating iterations to measure")
		seed  = fs.Uint64("seed", 42, "random seed")
		view  = fs.String("view", "modeled", "time view: modeled, measured, both, or csv (the experiment's rows instead of its text table)")
		p     = fs.Int("p", 16, "processor count for comparison experiments")
		k     = fs.Int("k", 50, "rank for scaling experiments")
		ks    = fs.String("ks", "10,20,30,40,50", "rank sweep for comparison experiments")
		ps    = fs.String("ps", "4,16,64", "processor sweep for scaling experiments")
		jsonP = fs.String("json", "", "write a machine-readable BenchReport JSON of the selected experiments' rows (e.g. BENCH_main.json)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected arguments: %v", fs.Args())
	}

	cfg := experiments.Config{
		Scale:  *scale,
		Seed:   *seed,
		Iters:  *iters,
		FixedP: *p,
		FixedK: *k,
		View:   *view,
	}
	var err error
	if cfg.Ks, err = parseInts(*ks); err != nil {
		return fmt.Errorf("bad -ks: %w", err)
	}
	if cfg.Ps, err = parseInts(*ps); err != nil {
		return fmt.Errorf("bad -ps: %w", err)
	}

	ids := strings.Split(*exp, ",")
	if *exp == "all" {
		ids = experiments.Names()
	}
	for i := range ids {
		ids[i] = strings.TrimSpace(ids[i])
	}

	if *jsonP != "" {
		if *exp == "all" {
			// "all" means every experiment whose artifact is its rows.
			ids = experiments.RowProducingNames()
		}
		rep, err := experiments.Collect(ids, cfg)
		if err != nil {
			return err
		}
		out, err := os.Create(*jsonP)
		if err != nil {
			return err
		}
		if err := rep.WriteJSON(out); err != nil {
			out.Close()
			return fmt.Errorf("writing %s: %w", *jsonP, err)
		}
		if err := out.Close(); err != nil {
			return fmt.Errorf("writing %s: %w", *jsonP, err)
		}
		fmt.Fprintf(stdout, "wrote %s (%d rows, schema v%d)\n", *jsonP, len(rep.Rows), rep.Version)
		return nil
	}

	for i, id := range ids {
		if i > 0 {
			fmt.Fprintln(stdout)
		}
		if err := experiments.Run(id, cfg, stdout); err != nil {
			return fmt.Errorf("%s: %w", id, err)
		}
	}
	return nil
}

func parseInts(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			return nil, err
		}
		if v < 1 {
			return nil, fmt.Errorf("value %d < 1", v)
		}
		out = append(out, v)
	}
	return out, nil
}
