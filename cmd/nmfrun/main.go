// Command nmfrun factorizes a dataset with any of the algorithms and
// prints convergence history and the per-iteration task breakdown.
// With the observability flags it also emits a Chrome trace_event
// timeline (-trace, open in Perfetto), a metrics snapshot (-metrics),
// and a machine-readable run report (-report).
//
// Usage:
//
//	nmfrun -data ssyn -k 16 -alg hpc2d -p 16 -iters 10   # -grid auto picks the grid
//	nmfrun -data ssyn -k 16 -alg hpc2d -grid 4x2         # explicit grid
//	nmfrun -data ssyn -k 16 -alg bpp -p 16               # HPC 2D skeleton + BPP updater
//	nmfrun -data ssyn -k 16 -alg auto -p 16              # cost-model pick of layout, grid and updater
//	nmfrun -data video -alg hpc1d -p 8
//	nmfrun -mm matrix.mtx -alg naive -p 4        # MatrixMarket input, coordinate or array
//	nmfrun -data ssyn -alg hpc2d -p 16 -trace t.json -report r.json -metrics
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"hpcnmf"
	"hpcnmf/internal/core"
	"hpcnmf/internal/costmodel"
	"hpcnmf/internal/datasets"
	"hpcnmf/internal/nnls"
	"hpcnmf/internal/perf"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintf(os.Stderr, "nmfrun: %v\n", err)
		os.Exit(1)
	}
}

// run is the whole command behind a testable seam: flags come from
// args, output goes to the writers, and failures are returned instead
// of exiting the process. It is the command's five stages in order:
// input, options, pick, run, print.
func run(args []string, stdout, stderr io.Writer) error {
	c, err := parseFlags(args, stderr)
	if err != nil {
		return err
	}
	in, err := loadInput(c, stdout)
	if err != nil {
		return err
	}
	if in.tile != nil {
		defer in.tile.Close()
	}
	opts, err := buildOptions(c, stdout)
	if err != nil {
		return err
	}
	var picked *plan
	if c.alg == "auto" {
		if picked, err = pick(c, in.a, &opts, stdout); err != nil {
			return err
		}
	}
	stopProfile, err := startProfile(c.profile, c.profDir)
	if err != nil {
		return err
	}
	res, procs, err := factorize(c, in, picked, opts)
	profErr := stopProfile(stdout)
	if err != nil {
		return err
	}
	if profErr != nil {
		return profErr
	}
	if err := printResult(c, in, res, stdout); err != nil {
		return err
	}
	return writeArtefacts(c, in, opts, procs, res, stdout)
}

// cli is the parsed command line.
type cli struct {
	data, mmPath, tiled, tileMem string
	dense                        bool
	scale                        float64
	alg, solver, grid            string
	sweeps, k, p, iters          int
	tol                          float64
	seed                         uint64
	view, out, trace, report     string
	metrics, progress            bool
	profile, profDir             string
	fault                        string
	deadline                     time.Duration
	ckptDir, resume              string
	ckptEvery                    int

	solverSet bool // -solver was given, so -alg auto leaves the updater alone
}

// parseFlags reads the command line and settles what -alg means: an
// updater name is sugar for the HPC 2D skeleton (the streaming driver
// with -tiled) plus -solver.
func parseFlags(args []string, stderr io.Writer) (*cli, error) {
	fs := flag.NewFlagSet("nmfrun", flag.ContinueOnError)
	fs.SetOutput(stderr)
	c := &cli{}
	fs.StringVar(&c.data, "data", "dsyn", "dataset: dsyn, ssyn, video, webbase, bow (ignored with -mm)")
	fs.StringVar(&c.mmPath, "mm", "", "read a MatrixMarket file (coordinate or array layout) instead of generating a dataset")
	fs.StringVar(&c.tiled, "tiled", "", "factorize an out-of-core tile file (written by datagen -tiled) by streaming row panels from disk")
	fs.StringVar(&c.tileMem, "tile-mem", "", "tile-buffer byte budget for -tiled, e.g. 64MiB: row panels are the tallest whose prefetch buffers fit it (default ~8 MiB panels)")
	fs.BoolVar(&c.dense, "dense", false, "force the dense kernel path: densify a sparse input instead of auto-detecting storage by density")
	fs.Float64Var(&c.scale, "scale", 0.25, "dataset scale factor")
	fs.StringVar(&c.alg, "alg", "hpc2d", "algorithm: seq, naive, hpc1d, hpc2d, auto (cost-model pick of layout, grid and updater), or a solver name ("+nnls.Names()+") for the HPC 2D skeleton with that updater")
	fs.StringVar(&c.solver, "solver", "bpp", "local NLS solver: "+nnls.Names())
	fs.IntVar(&c.sweeps, "sweeps", 1, "inner sweeps per solve for the inexact solvers (BPP ignores it)")
	fs.IntVar(&c.k, "k", 10, "factorization rank")
	fs.IntVar(&c.p, "p", 16, "processor count (parallel algorithms)")
	fs.StringVar(&c.grid, "grid", "auto", "hpc2d processor grid: auto (cost-model argmin over factorizations of -p) or explicit PRxPC, e.g. 4x2 (overrides -p)")
	fs.IntVar(&c.iters, "iters", 10, "max alternating iterations")
	fs.Float64Var(&c.tol, "tol", 0, "early-stop tolerance on relative-error decrease (0 = off)")
	fs.Uint64Var(&c.seed, "seed", 42, "random seed")
	fs.StringVar(&c.view, "view", "both", "breakdown view: modeled, measured, both")
	fs.StringVar(&c.out, "out", "", "write factors to <out>.W and <out>.H (CRC-checked factor files that hpcnmf.LoadFactor reads)")
	fs.StringVar(&c.trace, "trace", "", "write a Chrome trace_event JSON timeline (one track per rank)")
	fs.StringVar(&c.report, "report", "", "write a machine-readable JSON run report")
	fs.BoolVar(&c.metrics, "metrics", false, "collect and print the metrics registry snapshot")
	fs.BoolVar(&c.progress, "progress", false, "stream per-iteration convergence telemetry to stdout as NDJSON")
	fs.StringVar(&c.profile, "profile", "", "profile the run: cpu, heap, mutex, or block (written as <kind>.pprof)")
	fs.StringVar(&c.profDir, "profile-dir", ".", "directory for -profile output")
	fs.StringVar(&c.fault, "fault", "", "fault-injection spec, e.g. 'kill:AllReduce:rank=2:call=3' (see internal/fault)")
	fs.DurationVar(&c.deadline, "deadline", 0, "per-collective communication deadline (0 = default 2m)")
	fs.StringVar(&c.ckptDir, "ckpt", "", "checkpoint directory: periodically snapshot factors for -resume")
	fs.IntVar(&c.ckptEvery, "ckpt-every", 0, "checkpoint every N iterations (default 10 with -ckpt)")
	fs.StringVar(&c.resume, "resume", "", "resume from the checkpoint in this directory and keep checkpointing there")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	if fs.NArg() > 0 {
		return nil, fmt.Errorf("unexpected arguments: %v", fs.Args())
	}
	algSet := false
	fs.Visit(func(f *flag.Flag) {
		switch f.Name {
		case "solver":
			c.solverSet = true
		case "alg":
			algSet = true
		}
	})

	// -alg can name any solver -solver accepts: the framework's headline
	// spelling, running the HPC 2D skeleton with that updater plugged
	// in. It is sugar for -alg hpc2d -solver <rule>. Out-of-core runs
	// use the streaming sequential driver instead of a skeleton, so
	// there the sugar sets only the updater.
	if kind, err := hpcnmf.ParseSolver(c.alg); err == nil {
		if c.solverSet {
			asked, err := hpcnmf.ParseSolver(c.solver)
			if err != nil {
				return nil, err
			}
			if asked != kind {
				return nil, fmt.Errorf("-alg %s names an updater but -solver %s asks for a different one", c.alg, c.solver)
			}
		}
		c.solver = c.alg
		if c.tiled == "" {
			c.alg = "hpc2d"
		} else {
			c.alg = "seq"
		}
	}
	switch c.alg {
	case "seq", "naive", "hpc1d", "hpc2d", "auto":
	default:
		return nil, fmt.Errorf("unknown algorithm %q (want seq, naive, hpc1d, hpc2d, auto, or a solver name: %s)", c.alg, nnls.Names())
	}
	if c.tiled != "" {
		if c.mmPath != "" {
			return nil, fmt.Errorf("-tiled and -mm both name an input; pick one")
		}
		if algSet && c.alg != "seq" {
			return nil, fmt.Errorf("-alg %s is in-core; -tiled runs the streaming sequential driver (use -alg seq or a solver name: %s)", c.alg, nnls.Names())
		}
	}
	switch c.view {
	case "modeled", "measured", "both":
	default:
		return nil, fmt.Errorf("unknown -view %q (want modeled, measured, or both)", c.view)
	}
	if c.alg == "auto" && c.grid != "auto" {
		return nil, fmt.Errorf("-alg auto picks the grid itself; drop -grid %s or name the algorithm (-alg hpc2d)", c.grid)
	}
	if c.resume != "" && c.ckptDir != "" && c.resume != c.ckptDir {
		return nil, fmt.Errorf("-resume and -ckpt name different directories; -resume keeps checkpointing into its own directory")
	}
	return c, nil
}

// input is what the run factorizes: an in-core matrix, or an open tile
// file.
type input struct {
	name string
	a    hpcnmf.Matrix
	tile *hpcnmf.TileFile
}

// loadInput opens or generates the data matrix and reports the storage
// path it will run on (dataset.storage in the run report).
func loadInput(c *cli, stdout io.Writer) (*input, error) {
	switch {
	case c.tiled != "":
		return openTiled(c, stdout)
	case c.mmPath != "":
		f, err := os.Open(c.mmPath)
		if err != nil {
			return nil, err
		}
		csr, err := hpcnmf.ReadMatrixMarket(f)
		f.Close()
		if err != nil {
			return nil, fmt.Errorf("parsing %s: %w", c.mmPath, err)
		}
		return pickStorage(c, &input{name: c.mmPath, a: hpcnmf.WrapSparse(csr)}, stdout), nil
	}
	ds, err := datasets.ByName(c.data, datasets.Scale(c.scale), c.seed)
	if err != nil {
		return nil, err
	}
	return pickStorage(c, &input{name: ds.Name, a: ds.Matrix}, stdout), nil
}

// openTiled opens the -tiled file with -tile-mem as its read budget:
// the panels are the tallest whose DefaultTileDepth+1 buffers fit it
// (~8 MiB ones without it), and those buffers are all the tile reads
// keep resident (DESIGN decision 15).
func openTiled(c *cli, stdout io.Writer) (*input, error) {
	var budget int64
	if c.tileMem != "" {
		var err error
		if budget, err = parseByteSize(c.tileMem); err != nil {
			return nil, fmt.Errorf("bad -tile-mem: %w", err)
		}
	}
	f, err := hpcnmf.OpenTiled(c.tiled, budget)
	if err != nil {
		return nil, fmt.Errorf("opening tile file: %w", err)
	}
	hdr, depth := f.Header(), int64(hpcnmf.DefaultTileDepth)
	tileBytes := hdr.TileRows * hdr.Cols * 8
	fmt.Fprintf(stdout, "storage: out-of-core (%d tiles of %d rows, %s each, prefetch depth %d, %s resident tile buffers)\n",
		hdr.Tiles(), hdr.TileRows, formatBytes(tileBytes),
		depth, formatBytes((depth+1)*tileBytes))
	return &input{name: filepath.Base(c.tiled), tile: f}, nil
}

// pickStorage selects the kernel path of an in-core input. Sparse
// inputs take the sparse 2D HPC path by default. A MatrixMarket file
// of either layout is read as a CSR, which often carries a matrix
// dense in all but format (an array file stores every entry); above
// the density cutoff the blocked dense kernels beat the CSR ones, so
// such inputs are densified automatically. -dense forces
// densification either way.
func pickStorage(c *cli, in *input, stdout io.Writer) *input {
	const denseCutoff = 0.25
	s, ok := hpcnmf.UnwrapSparse(in.a)
	if !ok {
		if c.dense {
			fmt.Fprintln(stdout, "storage: dense (-dense is a no-op on dense input)")
		}
		return in
	}
	m, n := in.a.Dims()
	density := 0.0
	if m > 0 && n > 0 {
		density = float64(in.a.NNZ()) / (float64(m) * float64(n))
	}
	switch {
	case c.dense:
		in.a = hpcnmf.WrapDense(s.ToDense())
		fmt.Fprintf(stdout, "storage: dense (forced by -dense; density %.4f)\n", density)
	case density > denseCutoff:
		in.a = hpcnmf.WrapDense(s.ToDense())
		fmt.Fprintf(stdout, "storage: dense (auto: density %.4f > %.2f)\n", density, denseCutoff)
	default:
		fmt.Fprintf(stdout, "storage: sparse (density %.4f)\n", density)
	}
	return in
}

// buildOptions turns the flags into run options, loading the
// checkpoint a -resume names (which fixes K, the updater and the
// remaining iterations).
func buildOptions(c *cli, stdout io.Writer) (hpcnmf.Options, error) {
	opts := hpcnmf.Options{
		K:               c.k,
		MaxIter:         c.iters,
		Tol:             c.tol,
		Sweeps:          c.sweeps,
		Seed:            c.seed,
		ComputeError:    true,
		TraceEvents:     c.trace != "",
		CommDeadline:    c.deadline,
		CheckpointDir:   c.ckptDir,
		CheckpointEvery: c.ckptEvery,
	}
	if c.metrics || c.report != "" {
		opts.Metrics = hpcnmf.NewMetricsRegistry()
	}
	if c.progress {
		// One JSON object per completed iteration, flushed as the run
		// goes — tail -f friendly convergence telemetry.
		enc := json.NewEncoder(stdout)
		opts.Progress = func(p hpcnmf.Progress) { _ = enc.Encode(p) }
	} else if c.report != "" {
		// Reports always embed the telemetry series; a non-nil hook is
		// what arms its collection.
		opts.Progress = func(hpcnmf.Progress) {}
	}
	var err error
	if c.fault != "" {
		if opts.Fault, err = hpcnmf.ParseFault(c.fault); err != nil {
			return opts, err
		}
	}
	// The solver must be applied before Resume: checkpoints record the
	// updater name and resuming validates it against the options.
	if opts.Solver, err = hpcnmf.ParseSolver(c.solver); err != nil {
		return opts, err
	}
	if c.resume != "" {
		ck, err := hpcnmf.LoadCheckpoint(c.resume)
		if err != nil {
			return opts, fmt.Errorf("loading checkpoint: %w", err)
		}
		if opts, err = ck.Resume(opts); err != nil {
			return opts, err
		}
		opts.CheckpointDir = c.resume // keep snapshotting where we left off
		c.k = opts.K
		fmt.Fprintf(stdout, "resuming %s from iteration %d (%d iterations remain)\n\n",
			c.resume, ck.Meta.Iteration, opts.MaxIter)
	}
	return opts, nil
}

// plan is the one grid decision of an -alg auto run: costmodel.Plan's
// row 0 and whether the plan found it feasible (Result.GridAuto).
type plan struct {
	best     costmodel.GridCandidate
	feasible bool
}

// pick makes -alg auto's choice from ONE plan: it prints the forecast
// (Naive, the 1D grid and the plan's row 0, every HPC row priced by the
// rule the run's own grid: line reports), names the layout the first
// row stands for, ranks the updaters on the same grid, and returns the
// row the run will execute. It settles c.alg, c.solver and
// opts.Solver.
func pick(c *cli, a hpcnmf.Matrix, opts *hpcnmf.Options, stdout io.Writer) (*plan, error) {
	model := perf.Edison() // Options.Model's default, which no flag changes
	pb := core.GridProblem(a, c.k)
	ranked, infeasible := costmodel.Plan(pb, c.p, model)
	adv := costmodel.Advise(pb, ranked, model)
	if len(adv) == 0 {
		return nil, fmt.Errorf("cost model returned no algorithm advice for k=%d p=%d; pick -alg explicitly", c.k, c.p)
	}
	// The first row is what runs (a 1D row can only tie with the
	// plan's row 0, which then sorts ahead of it).
	fmt.Fprintln(stdout, "cost-model forecast (fastest first; the first row runs):")
	for _, row := range adv {
		fmt.Fprintf(stdout, "  %-14s %.6f s/iter\n", row.Algorithm, row.Seconds)
	}
	c.alg = "hpc2d"
	if adv[0].Algorithm == "Naive" {
		c.alg = "naive"
	}
	// The updater is picked on the same grid — unless the user pinned
	// one with -solver, or the run resumes a checkpoint (whose updater
	// is fixed).
	if !c.solverSet && c.resume == "" {
		choices := costmodel.AlgorithmGrid(pb, ranked[0], model)
		fmt.Fprint(stdout, "updaters, s/iter with NLS x relative iterations to tolerance (cheapest product first):")
		for _, ch := range choices {
			fmt.Fprintf(stdout, "  %s %.6f x %.1f", ch.Updater.Name, ch.IterSeconds, ch.Updater.IterFactor)
		}
		fmt.Fprintln(stdout)
		opts.Solver = hpcnmf.SolverKind(choices[0].Kind)
		c.solver = strings.ToLower(choices[0].Updater.Name)
	}
	fmt.Fprintf(stdout, "selected: %s, updater %s\n\n", c.alg, c.solver)
	return &plan{best: ranked[0], feasible: infeasible == nil}, nil
}

// factorize runs the chosen driver (parseFlags has refused any other
// -alg, and pick has settled auto). procs is the rank count the run
// report records.
func factorize(c *cli, in *input, picked *plan, opts hpcnmf.Options) (res *hpcnmf.Result, procs int, err error) {
	if in.tile != nil {
		res, err = hpcnmf.RunOutOfCore(in.tile, hpcnmf.DefaultTileDepth, opts)
		return res, 1, err
	}
	switch c.alg {
	case "seq":
		res, err = hpcnmf.Run(in.a, opts)
		return res, 1, err
	case "naive":
		res, err = hpcnmf.RunNaive(in.a, c.p, opts)
	case "hpc1d":
		res, err = hpcnmf.RunOnGrid(in.a, c.p, 1, opts)
	case "hpc2d":
		switch {
		case picked != nil:
			if res, err = core.RunCandidate(in.a, picked.best, opts); res != nil {
				res.GridAuto = picked.feasible
			}
		case c.grid == "auto":
			res, err = hpcnmf.RunParallel(in.a, c.p, opts)
		default:
			var pr, pc int
			if pr, pc, err = parseGrid(c.grid); err != nil {
				return nil, 0, err
			}
			res, err = hpcnmf.RunOnGrid(in.a, pr, pc, opts)
			return res, pr * pc, err
		}
	}
	return res, c.p, err
}

// printResult writes the human report: what ran, the convergence
// history and the per-iteration task breakdown.
func printResult(c *cli, in *input, res *hpcnmf.Result, stdout io.Writer) error {
	if in.tile != nil {
		m, n := in.tile.Dims()
		fmt.Fprintf(stdout, "dataset:   %s (%dx%d, out-of-core)\n", in.name, m, n)
	} else {
		m, n := in.a.Dims()
		fmt.Fprintf(stdout, "dataset:   %s (%dx%d, nnz=%d)\n", in.name, m, n, in.a.NNZ())
	}
	fmt.Fprintf(stdout, "algorithm: %s, solver %s, k=%d\n", res.Algorithm, c.solver, c.k)
	if res.Grid.PR > 0 {
		how := "explicit"
		if res.GridAuto {
			how = "cost-model pick"
		}
		fmt.Fprintf(stdout, "grid:      %dx%d (%s), predicted %.6f s/iter, measured %.6f s/iter\n",
			res.Grid.PR, res.Grid.PC, how,
			res.GridPredictedSeconds, res.Breakdown.MeasuredTotal())
	}
	fmt.Fprintf(stdout, "iterations: %d\n\n", res.Iterations)
	fmt.Fprintln(stdout, "relative error per iteration:")
	for i, e := range res.RelErr {
		fmt.Fprintf(stdout, "  iter %3d: %.6f\n", i+1, e)
	}
	table, err := res.Breakdown.Format(c.view)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "\nper-iteration task breakdown:\n%s", table)

	if o := res.OOC; o != nil {
		fmt.Fprintf(stdout, "\ntile I/O: %d passes, %d tile loads (%s), load %.3f s, stream wait %.3f s, %.1f%% of I/O hidden behind compute\n",
			o.Passes, o.TilesLoaded, formatBytes(o.BytesLoaded),
			o.LoadSeconds, o.WaitSeconds, 100*o.HiddenFraction)
	}
	return nil
}

// writeArtefacts writes what the observability and output flags asked
// for: the trace, the metrics snapshot, the run report, the factors.
func writeArtefacts(c *cli, in *input, opts hpcnmf.Options, procs int, res *hpcnmf.Result, stdout io.Writer) error {
	if c.trace != "" {
		if err := res.Trace.WriteChromeFile(c.trace); err != nil {
			return fmt.Errorf("writing trace: %w", err)
		}
		fmt.Fprintf(stdout, "\nwrote trace %s (%d events, %d rank tracks; open in Perfetto or chrome://tracing)\n",
			c.trace, len(res.Trace.Events), res.Trace.Ranks)
	}
	if c.metrics {
		fmt.Fprintf(stdout, "\nmetrics:\n")
		opts.Metrics.Snapshot().WriteText(stdout)
	}
	if c.report != "" {
		var info hpcnmf.DatasetInfo
		if in.tile != nil {
			info = hpcnmf.DescribeTiled(in.name, in.tile)
		} else {
			info = hpcnmf.DescribeMatrix(in.name, in.a)
		}
		rep := hpcnmf.NewReport(info, procs, opts, res, c.trace)
		if err := rep.WriteJSONFile(c.report); err != nil {
			return fmt.Errorf("writing report: %w", err)
		}
		fmt.Fprintf(stdout, "\nwrote report %s (schema v%d)\n", c.report, rep.Version)
	}
	if c.out != "" {
		if err := hpcnmf.SaveFactor(c.out+".W", res.W); err != nil {
			return fmt.Errorf("saving W: %w", err)
		}
		if err := hpcnmf.SaveFactor(c.out+".H", res.H); err != nil {
			return fmt.Errorf("saving H: %w", err)
		}
		fmt.Fprintf(stdout, "\nwrote %s.W (%dx%d) and %s.H (%dx%d)\n",
			c.out, res.W.Rows, res.W.Cols, c.out, res.H.Rows, res.H.Cols)
	}
	return nil
}

// startProfile arms one runtime/pprof profile kind bracketing the
// iteration loop. The returned stop function finalizes the profile,
// writes <kind>.pprof into dir, and notes the path on w. An empty kind
// is a no-op.
func startProfile(kind, dir string) (stop func(io.Writer) error, err error) {
	if kind == "" {
		return func(io.Writer) error { return nil }, nil
	}
	path := filepath.Join(dir, kind+".pprof")
	// finish snapshots a lookup-style profile into path at stop time.
	finish := func(w io.Writer, write func(*os.File) error) error {
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		if err := write(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(w, "\nwrote %s profile %s (inspect with: go tool pprof %s)\n", kind, path, path)
		return nil
	}
	switch kind {
	case "cpu":
		f, err := os.Create(path)
		if err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return nil, err
		}
		return func(w io.Writer) error {
			pprof.StopCPUProfile()
			if err := f.Close(); err != nil {
				return err
			}
			fmt.Fprintf(w, "\nwrote %s profile %s (inspect with: go tool pprof %s)\n", kind, path, path)
			return nil
		}, nil
	case "heap":
		return func(w io.Writer) error {
			runtime.GC() // settle live-heap accounting before the snapshot
			return finish(w, func(f *os.File) error { return pprof.WriteHeapProfile(f) })
		}, nil
	case "mutex":
		runtime.SetMutexProfileFraction(5)
		return func(w io.Writer) error {
			defer runtime.SetMutexProfileFraction(0)
			return finish(w, func(f *os.File) error { return pprof.Lookup("mutex").WriteTo(f, 0) })
		}, nil
	case "block":
		runtime.SetBlockProfileRate(10_000) // sample blocking events ≥ 10µs
		return func(w io.Writer) error {
			defer runtime.SetBlockProfileRate(0)
			return finish(w, func(f *os.File) error { return pprof.Lookup("block").WriteTo(f, 0) })
		}, nil
	}
	return nil, fmt.Errorf("unknown -profile %q (want cpu, heap, mutex, or block)", kind)
}

// parseByteSize parses a human byte size like "512KiB", "64MiB",
// "2GiB", "1048576", or "64MB" (decimal suffixes are accepted as
// their binary value: people asking for -tile-mem 64MB mean a memory
// budget, not a disk-marketing unit).
func parseByteSize(s string) (int64, error) {
	t := strings.TrimSpace(s)
	mult := int64(1)
	for _, u := range []struct {
		suffix string
		mult   int64
	}{
		{"KiB", 1 << 10}, {"MiB", 1 << 20}, {"GiB", 1 << 30},
		{"KB", 1 << 10}, {"MB", 1 << 20}, {"GB", 1 << 30},
		{"K", 1 << 10}, {"M", 1 << 20}, {"G", 1 << 30}, {"B", 1},
	} {
		if strings.HasSuffix(t, u.suffix) {
			mult = u.mult
			t = strings.TrimSpace(strings.TrimSuffix(t, u.suffix))
			break
		}
	}
	v, err := strconv.ParseInt(t, 10, 64)
	if err != nil || v <= 0 {
		return 0, fmt.Errorf("want a positive size like 64MiB, got %q", s)
	}
	if v > (int64(1)<<62)/mult {
		return 0, fmt.Errorf("size %q overflows", s)
	}
	return v * mult, nil
}

// formatBytes renders a byte count with its natural binary unit.
func formatBytes(b int64) string {
	switch {
	case b >= 1<<30:
		return fmt.Sprintf("%.1fGiB", float64(b)/(1<<30))
	case b >= 1<<20:
		return fmt.Sprintf("%.1fMiB", float64(b)/(1<<20))
	case b >= 1<<10:
		return fmt.Sprintf("%.1fKiB", float64(b)/(1<<10))
	}
	return fmt.Sprintf("%dB", b)
}

// parseGrid parses an explicit "PRxPC" grid spec like "4x2".
func parseGrid(s string) (pr, pc int, err error) {
	prs, pcs, ok := strings.Cut(s, "x")
	if ok {
		pr, _ = strconv.Atoi(prs)
		pc, _ = strconv.Atoi(pcs)
	}
	if !ok || pr < 1 || pc < 1 {
		return 0, 0, fmt.Errorf("bad -grid %q (want auto or PRxPC, e.g. 4x2)", s)
	}
	return pr, pc, nil
}
