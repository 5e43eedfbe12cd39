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
//	nmfrun -mm matrix.mtx -alg naive -p 4        # MatrixMarket input
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
	"sort"
	"strconv"
	"strings"

	"hpcnmf"
	"hpcnmf/internal/metrics"
	"hpcnmf/internal/ooc"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintf(os.Stderr, "nmfrun: %v\n", err)
		os.Exit(1)
	}
}

// run is the whole command behind a testable seam: flags come from
// args, output goes to the writers, and failures are returned instead
// of exiting the process.
func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("nmfrun", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		data     = fs.String("data", "dsyn", "dataset: dsyn, ssyn, video, webbase, bow (ignored with -mm)")
		mmPath   = fs.String("mm", "", "read a MatrixMarket file instead of generating a dataset")
		tiled    = fs.String("tiled", "", "factorize an out-of-core tile file (written by datagen -tiled) by streaming row panels from disk")
		tileMem  = fs.String("tile-mem", "", "tile-buffer byte budget for -tiled, e.g. 64MiB: prefetch depth is lowered to fit, and the run refuses to start if even depth 1 overflows")
		tileBack = fs.String("tile-backend", "auto", "tile reader backend for -tiled: auto, mmap, readerat")
		tileDep  = fs.Int("tile-depth", 0, "prefetch depth for -tiled: tiles loaded ahead of the updater (0 = default)")
		dense    = fs.Bool("dense", false, "force the dense kernel path: densify a sparse input instead of auto-detecting storage by density")
		scale    = fs.Float64("scale", 0.25, "dataset scale factor")
		alg      = fs.String("alg", "hpc2d", "algorithm: seq, naive, hpc1d, hpc2d, auto (cost-model pick of layout, grid and updater), or an update rule mu|hals|pgd|bpp (HPC 2D skeleton with that updater)")
		solver   = fs.String("solver", "bpp", "local NLS solver: bpp, activeset, mu, hals, pgd")
		sweeps   = fs.Int("sweeps", 1, "inner sweeps for mu/hals")
		k        = fs.Int("k", 10, "factorization rank")
		p        = fs.Int("p", 16, "processor count (parallel algorithms)")
		gridStr  = fs.String("grid", "auto", "hpc2d processor grid: auto (cost-model argmin over factorizations of -p) or explicit PRxPC, e.g. 4x2 (overrides -p)")
		noOvl    = fs.Bool("no-overlap", false, "disable comm/compute overlap in the HPC driver (blocking baseline)")
		iters    = fs.Int("iters", 10, "max alternating iterations")
		tol      = fs.Float64("tol", 0, "early-stop tolerance on relative-error decrease (0 = off)")
		seed     = fs.Uint64("seed", 42, "random seed")
		view     = fs.String("view", "both", "breakdown view: modeled, measured, both")
		out      = fs.String("out", "", "write factors to <out>.W and <out>.H (binary)")
		trace    = fs.String("trace", "", "write a Chrome trace_event JSON timeline (one track per rank)")
		report   = fs.String("report", "", "write a machine-readable JSON run report")
		metrics  = fs.Bool("metrics", false, "collect and print the metrics registry snapshot")
		progress = fs.Bool("progress", false, "stream per-iteration convergence telemetry to stdout as NDJSON")
		profile  = fs.String("profile", "", "profile the run: cpu, heap, mutex, or block (written as <kind>.pprof)")
		profDir  = fs.String("profile-dir", ".", "directory for -profile output")

		faultSpec = fs.String("fault", "", "fault-injection spec, e.g. 'kill:AllReduce:rank=2:call=3' (see internal/fault)")
		deadline  = fs.Duration("deadline", 0, "per-collective communication deadline (0 = default 2m)")
		ckptDir   = fs.String("ckpt", "", "checkpoint directory: periodically snapshot factors for -resume")
		ckptEvery = fs.Int("ckpt-every", 0, "checkpoint every N iterations (default 10 with -ckpt)")
		resume    = fs.String("resume", "", "resume from the checkpoint in this directory and keep checkpointing there")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected arguments: %v", fs.Args())
	}
	solverSet, algSet := false, false
	fs.Visit(func(f *flag.Flag) {
		switch f.Name {
		case "solver":
			solverSet = true
		case "alg":
			algSet = true
		}
	})

	// -alg can name an update rule directly: the framework's headline
	// spelling, running the HPC 2D skeleton with that updater plugged
	// in. It is sugar for -alg hpc2d -solver <rule>. Out-of-core runs
	// use the streaming sequential driver instead of a skeleton, so
	// there the sugar sets only the updater.
	switch *alg {
	case "mu", "hals", "pgd", "bpp":
		if solverSet && *solver != *alg {
			return fmt.Errorf("-alg %s names an updater but -solver %s asks for a different one", *alg, *solver)
		}
		*solver = *alg
		if *tiled == "" {
			*alg = "hpc2d"
		} else {
			*alg = "seq"
		}
	}
	if *tiled != "" {
		if *mmPath != "" {
			return fmt.Errorf("-tiled and -mm both name an input; pick one")
		}
		if algSet && *alg != "seq" {
			return fmt.Errorf("-alg %s is in-core; -tiled runs the streaming sequential driver (use -alg seq or an updater name: mu, hals, pgd, bpp)", *alg)
		}
	}

	switch *view {
	case "modeled", "measured", "both":
	default:
		return fmt.Errorf("unknown -view %q (want modeled, measured, or both)", *view)
	}

	var a hpcnmf.Matrix
	var name string
	var tileFile *hpcnmf.TileFile
	tileDepth := *tileDep
	if *tiled != "" {
		f, err := hpcnmf.OpenTiledBackend(*tiled, *tileBack)
		if err != nil {
			return fmt.Errorf("opening tile file: %w", err)
		}
		defer f.Close()
		tileFile = f
		name = filepath.Base(*tiled)
		hdr := f.Header()
		if *tileMem != "" {
			budget, err := parseByteSize(*tileMem)
			if err != nil {
				return fmt.Errorf("bad -tile-mem: %w", err)
			}
			if tileDepth, err = fitTileDepth(hdr, tileDepth, budget); err != nil {
				return err
			}
		}
		depth := tileDepth
		if depth < 1 {
			depth = hpcnmf.DefaultTileDepth
		}
		tileBytes := hdr.TileRows * hdr.Cols * 8
		fmt.Fprintf(stdout, "storage: out-of-core (%d tiles of %d rows, %s each, %s backend, prefetch depth %d, %s resident tile buffers)\n",
			hdr.Tiles(), hdr.TileRows, formatBytes(tileBytes), f.BackendName(),
			depth, formatBytes(int64(depth+1)*tileBytes))
	} else if *mmPath != "" {
		f, err := os.Open(*mmPath)
		if err != nil {
			return err
		}
		csr, err := hpcnmf.ReadMatrixMarket(f)
		f.Close()
		if err != nil {
			return fmt.Errorf("parsing %s: %w", *mmPath, err)
		}
		a = hpcnmf.WrapSparse(csr)
		name = *mmPath
	} else {
		ds := hpcnmf.GenerateDataset(*data, *scale, *seed)
		a = ds.Matrix
		name = ds.Name
	}

	// Storage selection. Sparse inputs take the sparse 2D HPC path by
	// default; MatrixMarket is a sparse container that often carries a
	// matrix dense in all but format, and above the density cutoff the
	// blocked dense kernels beat the CSR ones, so such inputs are
	// densified automatically. -dense forces densification either way.
	// The chosen path lands in the run report as dataset.storage.
	const denseCutoff = 0.25
	if s, ok := hpcnmf.UnwrapSparse(a); ok && *tiled == "" {
		m, n := a.Dims()
		density := 0.0
		if m > 0 && n > 0 {
			density = float64(a.NNZ()) / (float64(m) * float64(n))
		}
		switch {
		case *dense:
			a = hpcnmf.WrapDense(s.ToDense())
			fmt.Fprintf(stdout, "storage: dense (forced by -dense; density %.4f)\n", density)
		case density > denseCutoff:
			a = hpcnmf.WrapDense(s.ToDense())
			fmt.Fprintf(stdout, "storage: dense (auto: density %.4f > %.2f)\n", density, denseCutoff)
		default:
			fmt.Fprintf(stdout, "storage: sparse (density %.4f)\n", density)
		}
	} else if *dense && *tiled == "" {
		fmt.Fprintln(stdout, "storage: dense (-dense is a no-op on dense input)")
	}

	opts := hpcnmf.Options{
		K:             *k,
		MaxIter:       *iters,
		Tol:           *tol,
		Sweeps:        *sweeps,
		Seed:          *seed,
		ComputeError:  true,
		TraceEvents:   *trace != "",
		NoCommOverlap: *noOvl,
	}
	if *metrics || *report != "" {
		opts.Metrics = hpcnmf.NewMetricsRegistry()
	}
	if *progress {
		// One JSON object per completed iteration, flushed as the run
		// goes — tail -f friendly convergence telemetry.
		enc := json.NewEncoder(stdout)
		opts.Progress = func(p hpcnmf.Progress) { _ = enc.Encode(p) }
	} else if *report != "" {
		// Reports always embed the telemetry series; a non-nil hook is
		// what arms its collection.
		opts.Progress = func(hpcnmf.Progress) {}
	}
	opts.CommDeadline = *deadline
	if *faultSpec != "" {
		inj, err := hpcnmf.ParseFault(*faultSpec)
		if err != nil {
			return err
		}
		opts.Fault = inj
	}
	if *resume != "" && *ckptDir != "" && *resume != *ckptDir {
		return fmt.Errorf("-resume and -ckpt name different directories; -resume keeps checkpointing into its own directory")
	}
	opts.CheckpointDir = *ckptDir
	opts.CheckpointEvery = *ckptEvery
	// The solver must be applied before Resume: checkpoints record the
	// updater name and resuming validates it against the options.
	solverOpt, err := hpcnmf.ParseSolver(*solver)
	if err != nil {
		return err
	}
	opts.Solver = solverOpt
	var resumedFrom int
	if *resume != "" {
		ck, err := hpcnmf.LoadCheckpoint(*resume)
		if err != nil {
			return fmt.Errorf("loading checkpoint: %w", err)
		}
		opts, err = ck.Resume(opts)
		if err != nil {
			return err
		}
		opts.CheckpointDir = *resume // keep snapshotting where we left off
		resumedFrom = ck.Meta.Iteration
		*k = opts.K
		fmt.Fprintf(stdout, "resuming %s from iteration %d (%d iterations remain)\n\n",
			*resume, resumedFrom, opts.MaxIter)
	}
	var res *hpcnmf.Result
	if *alg == "auto" {
		if *gridStr != "auto" {
			return fmt.Errorf("-alg auto picks the grid itself; drop -grid %s or name the algorithm (-alg hpc2d)", *gridStr)
		}
		adv := hpcnmf.Advise(a, *k, *p)
		if len(adv) == 0 {
			return fmt.Errorf("cost model returned no algorithm advice for k=%d p=%d; pick -alg explicitly", *k, *p)
		}
		// One forecast: Naive, the 1D grid and the grid RunParallel
		// picks, every HPC row priced by the rule the run's own grid:
		// line reports. The first row is what runs (a 1D row can only
		// tie with the picked grid, which then sorts ahead of it).
		fmt.Fprintln(stdout, "cost-model forecast (fastest first; the first row runs):")
		for _, row := range adv {
			fmt.Fprintf(stdout, "  %-14s %.6f s/iter\n", row.Algorithm, row.Seconds)
		}
		*alg = "hpc2d"
		if adv[0].Algorithm == "Naive" {
			*alg = "naive"
		}
		// The updater is picked on the same grid — unless the user
		// pinned one with -solver, or the run resumes a checkpoint
		// (whose updater is fixed).
		if !solverSet && *resume == "" {
			// An error next to rows is the infeasible-grid fallback
			// RunParallel takes too; the rows are priced on that grid.
			choices, jerr := hpcnmf.AdviseAlgorithmGrid(a, *k, *p)
			if len(choices) == 0 {
				return fmt.Errorf("updater advice: %w", jerr)
			}
			fmt.Fprint(stdout, "updaters, s/iter with NLS x relative iterations to tolerance (cheapest product first):")
			for _, ch := range choices {
				fmt.Fprintf(stdout, "  %s %.6f x %.1f", ch.Updater.Name, ch.IterSeconds, ch.Updater.IterFactor)
			}
			fmt.Fprintln(stdout)
			*solver = strings.ToLower(choices[0].Updater.Name)
			if opts.Solver, err = hpcnmf.ParseSolver(*solver); err != nil {
				return err
			}
		}
		fmt.Fprintf(stdout, "selected: %s, updater %s\n\n", *alg, *solver)
	}
	stopProfile, err := startProfile(*profile, *profDir)
	if err != nil {
		return err
	}
	procs := *p
	if tileFile != nil {
		procs = 1
		res, err = hpcnmf.RunOutOfCore(tileFile, tileDepth, opts)
	} else {
		switch *alg {
		case "seq":
			procs = 1
			res, err = hpcnmf.Run(a, opts)
		case "naive":
			res, err = hpcnmf.RunNaive(a, *p, opts)
		case "hpc1d":
			res, err = hpcnmf.RunOnGrid(a, *p, 1, opts)
		case "hpc2d":
			if *gridStr == "auto" {
				res, err = hpcnmf.RunParallel(a, *p, opts)
			} else {
				var pr, pc int
				if pr, pc, err = parseGrid(*gridStr); err != nil {
					return err
				}
				procs = pr * pc
				res, err = hpcnmf.RunOnGrid(a, pr, pc, opts)
			}
		default:
			return fmt.Errorf("unknown algorithm %q", *alg)
		}
	}
	profErr := stopProfile(stdout)
	if err != nil {
		return err
	}
	if profErr != nil {
		return profErr
	}

	var m, n int
	if tileFile != nil {
		m, n = tileFile.Dims()
		fmt.Fprintf(stdout, "dataset:   %s (%dx%d, out-of-core)\n", name, m, n)
	} else {
		m, n = a.Dims()
		fmt.Fprintf(stdout, "dataset:   %s (%dx%d, nnz=%d)\n", name, m, n, a.NNZ())
	}
	fmt.Fprintf(stdout, "algorithm: %s, solver %s, k=%d\n", res.Algorithm, *solver, *k)
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
	table, err := res.Breakdown.Format(*view)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "\nper-iteration task breakdown:\n%s", table)

	if res.OOC != nil {
		o := res.OOC
		fmt.Fprintf(stdout, "\ntile I/O: %d passes, %d tile loads (%s), load %.3f s, stream wait %.3f s, %.1f%% of I/O hidden behind compute\n",
			o.Passes, o.TilesLoaded, formatBytes(o.BytesLoaded),
			o.LoadSeconds, o.WaitSeconds, 100*o.HiddenFraction)
	}

	if *trace != "" {
		if err := res.Trace.WriteChromeFile(*trace); err != nil {
			return fmt.Errorf("writing trace: %w", err)
		}
		fmt.Fprintf(stdout, "\nwrote trace %s (%d events, %d rank tracks; open in Perfetto or chrome://tracing)\n",
			*trace, len(res.Trace.Events), res.Trace.Ranks)
	}
	if *metrics {
		printOverlap(stdout, opts.Metrics.Snapshot())
		fmt.Fprintf(stdout, "\nmetrics:\n")
		opts.Metrics.Snapshot().WriteText(stdout)
	}
	if *report != "" {
		var info hpcnmf.DatasetInfo
		if tileFile != nil {
			info = hpcnmf.DescribeTiled(name, tileFile)
		} else {
			info = hpcnmf.DescribeMatrix(name, a)
		}
		rep := hpcnmf.NewReport(info, procs, opts, res, *trace)
		if err := rep.WriteJSONFile(*report); err != nil {
			return fmt.Errorf("writing report: %w", err)
		}
		fmt.Fprintf(stdout, "\nwrote report %s (schema v%d)\n", *report, rep.Version)
	}

	if *out != "" {
		if err := hpcnmf.SaveFactor(*out+".W", res.W); err != nil {
			return fmt.Errorf("saving W: %w", err)
		}
		if err := hpcnmf.SaveFactor(*out+".H", res.H); err != nil {
			return fmt.Errorf("saving H: %w", err)
		}
		fmt.Fprintf(stdout, "\nwrote %s.W (%dx%d) and %s.H (%dx%d)\n",
			*out, res.W.Rows, res.W.Cols, *out, res.H.Rows, res.H.Cols)
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

// printOverlap renders the per-rank comm/compute overlap table from
// the metrics snapshot: how long each rank's nonblocking collectives
// had to progress behind compute (window), how long the rank then
// blocked in Wait, and the hidden fraction window/(window+wait).
// Silent when the run recorded no nonblocking collectives.
func printOverlap(w io.Writer, snap *metrics.Snapshot) {
	if snap == nil || snap.Counters["mpi.overlap.requests"] == 0 {
		return
	}
	ranks := make([]int, 0, 16)
	for name := range snap.Counters {
		var r int
		if _, err := fmt.Sscanf(name, "mpi.rank.%d.overlap.window.ns", &r); err == nil {
			ranks = append(ranks, r)
		}
	}
	sort.Ints(ranks)
	if len(ranks) == 0 {
		return
	}
	fmt.Fprintf(w, "\ncomm/compute overlap per rank (%d nonblocking collectives):\n", snap.Counters["mpi.overlap.requests"])
	fmt.Fprintf(w, "  %4s  %12s  %12s  %10s\n", "rank", "window (s)", "wait (s)", "hidden")
	for _, r := range ranks {
		window := float64(snap.Counters[fmt.Sprintf("mpi.rank.%d.overlap.window.ns", r)]) / 1e9
		wait := float64(snap.Counters[fmt.Sprintf("mpi.rank.%d.overlap.wait.ns", r)]) / 1e9
		fmt.Fprintf(w, "  %4d  %12.6f  %12.6f  %9.1f%%\n",
			r, window, wait,
			100*snap.Gauges[fmt.Sprintf("mpi.rank.%d.overlap.efficiency", r)])
	}
}

// fitTileDepth validates an out-of-core run against a byte budget:
// the pipeline holds depth+1 resident tile buffers (depth prefetched
// plus the one being consumed), so depth is lowered until they fit.
// If even depth 1 overflows, the tile file's panels are too tall for
// the budget and the run refuses to start rather than thrash.
func fitTileDepth(hdr ooc.Header, depth int, budget int64) (int, error) {
	if depth < 1 {
		depth = ooc.DefaultDepth
	}
	tileBytes := hdr.TileRows * hdr.Cols * 8
	for depth > 1 && int64(depth+1)*tileBytes > budget {
		depth--
	}
	if int64(depth+1)*tileBytes > budget {
		maxRows, err := ooc.TileRowsForBudget(int(hdr.Cols), 1, budget)
		if err != nil {
			return 0, fmt.Errorf("-tile-mem %s cannot hold two %d-row tiles (%s each); even single-row tiles overflow it",
				formatBytes(budget), hdr.TileRows, formatBytes(tileBytes))
		}
		return 0, fmt.Errorf("-tile-mem %s cannot hold two %d-row tiles (%s each); regenerate with datagen -tiled -tile-rows %d or less",
			formatBytes(budget), hdr.TileRows, formatBytes(tileBytes), maxRows)
	}
	return depth, nil
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
