package main

// mutant is one row of the gate: replacing the single occurrence of
// From in File with To must make a test matched by Run in package Pkg
// fail. A row whose edit is in code only one kernel dispatch level
// runs names that level in ISA; a CPU that cannot run it checks that
// the row is not stale and skips the test.
type mutant struct {
	Name     string
	File     string // relative to the module root
	From, To string
	Pkg      string // package whose tests must kill it
	Run      string // go test -run pattern naming the killing tests
	ISA      string // the dispatch level the edited code runs at, if one
}

// table lists every mutant the test suite is known to kill. A property
// test that is added to catch a class of bug adds the row that proves
// it does.
var table = []mutant{
	{
		Name: "hals-coupling-sign",
		File: "internal/nnls/solver.go",
		From: "num[j] -= gtl * xl[j]",
		To:   "num[j] += gtl * xl[j]",
		Pkg:  "./internal/core",
		Run:  "^TestObjectiveNeverIncreases$",
	},
	{
		Name: "mu-ratio-inverted",
		File: "internal/nnls/solver.go",
		From: "dst.Data[i] *= f.Data[i] / den",
		To:   "dst.Data[i] *= den / f.Data[i]",
		Pkg:  "./internal/nnls",
		Run:  "^TestMUDecreasesObjective$",
	},
	{
		Name: "bpp-exchange-rule-le",
		File: "internal/nnls/bpp.go",
		From: "case n < ps.beta[c]:",
		To:   "case n <= ps.beta[c]:",
		Pkg:  "./internal/nnls",
		Run:  "^TestBPPPivotSequenceUnchanged$",
	},
	// The Lawson–Hanson oracle rows (DESIGN decision 26): each
	// comparison of BPP with the oracle, and the oracle's own KKT check,
	// kills one edit when run alone. Neither cholesky.go row can be seen
	// by a reference that solves through mat.SolveSPDInto too.
	{
		Name: "cholesky-pivot-epsilon",
		File: "internal/mat/cholesky.go",
		From: "dj := math.Sqrt(d)",
		To:   "dj := math.Sqrt(d + 1e-4)",
		Pkg:  "./internal/nnls",
		Run:  "^TestBPPSingleColumn$",
	},
	{
		Name: "spd-jitter-starts-large",
		File: "internal/mat/cholesky.go",
		From: "eps := 1e-12 * maxDiag",
		To:   "eps := 1e-2 * maxDiag",
		Pkg:  "./internal/nnls",
		Run:  "^TestBPPRankDeficientGram$",
	},
	{
		Name: "bpp-active-set-keeps-dual",
		File: "internal/nnls/bpp.go",
		From: "keep := -(key[i>>6] >> (i & 63) & 1) & allIf(!(v < 0))",
		To:   "keep := allIf(!(v < 0))",
		Pkg:  "./internal/nnls",
		Run:  "^TestBPPMatchesActiveSet$",
	},
	{
		Name: "bpp-group-rhs-packed-index",
		File: "internal/nnls/bpp.go",
		From: "xp.Data[a*nc+b] = -ps.nf[c*k+ia]",
		To:   "xp.Data[a*nc+b] = -ps.nf[c*k+a]",
		Pkg:  "./internal/nnls",
		Run:  "^TestBPPMatchesActiveSetDegenerateShapes$",
	},
	{
		Name: "bpp-feasibility-tolerance-sign",
		File: "internal/nnls/bpp.go",
		From: "kw, neg := (k+63)/64, -tol",
		To:   "kw, neg := (k+63)/64, tol",
		Pkg:  "./internal/nnls",
		Run:  "^TestBPPAllZeroRHS$",
	},
	{
		Name: "hgram-not-refreshed",
		File: "internal/core/skeleton.go",
		From: "\ts.haveHGram = false\n",
		To:   "\n",
		Pkg:  "./internal/nnls",
		Run:  "^TestBPPFitTracksOracleANLS$",
	},
	// Every reader of H after the first iteration — the W half's Gram,
	// all-gather and product — reads the rank's Hᵀ: left stale, the W
	// updates solve against the initial H and the objective climbs.
	{
		Name: "ht-not-refreshed",
		File: "internal/core/skeleton.go",
		From: "\ts.h.TTo(s.ht)\n",
		To:   "\n",
		Pkg:  "./internal/core",
		Run:  "^TestObjectiveNeverIncreases$",
	},
	{
		Name: "allgather-before-gram",
		File: "internal/core/hpc.go",
		From: "\tps := r.led.Start(perf.TaskGram)\n\tmat.ParGramTo(s.localGram, s.block, r.pool)\n\tr.led.Stop(ps, gramFlops(s.block.Rows, r.k))\n\n" +
			"\tps = r.led.Start(perf.TaskAllGather)\n" +
			"\tpanel := &mat.Dense{Rows: s.panelRows, Cols: r.k, Data: s.gatherComm.AllGatherV(s.block.Data, s.gatherWords)}\n\tr.led.Stop(ps, 0)\n",
		To: "\tps := r.led.Start(perf.TaskAllGather)\n" +
			"\tpanel := &mat.Dense{Rows: s.panelRows, Cols: r.k, Data: s.gatherComm.AllGatherV(s.block.Data, s.gatherWords)}\n\tr.led.Stop(ps, 0)\n\n" +
			"\tps = r.led.Start(perf.TaskGram)\n\tmat.ParGramTo(s.localGram, s.block, r.pool)\n\tr.led.Stop(ps, gramFlops(s.block.Rows, r.k))\n",
		Pkg: "./internal/core",
		Run: "^TestAllGatherFollowsGramOn2x2$",
	},
	{
		Name: "oracle-backsub-transposed",
		File: "internal/nnls/oracle_test.go",
		From: "s -= l[t*n+i] * y[t]",
		To:   "s -= l[i*n+t] * y[t]",
		Pkg:  "./internal/nnls",
		Run:  "^TestActiveSetSatisfiesKKT$",
	},
	{
		Name: "ledger-stop-noop",
		File: "internal/core/updater.go",
		From: "e.led.Stop(ps, st.Flops)",
		To:   "_ = ps",
		Pkg:  "./internal/core",
		Run:  "^TestRunLoopContract$",
	},
	{
		Name: "fold-block-at-panel-start",
		File: "internal/core/sequential.go",
		From: "l.fold(l.blkA, r0+b0)",
		To:   "l.fold(l.blkA, r0)",
		Pkg:  "./internal/core",
		Run:  "^TestFoldBlocksBitwise$",
	},
	// The in-core ‖A‖²_F future (trackedNorm): a future that answers
	// before its goroutine has summed reads a wrong objective.
	{
		Name: "norm-future-does-not-wait",
		File: "internal/core/options.go",
		From: "return sync.OnceValue(func() float64 { return <-sum })",
		To:   "return sync.OnceValue(func() float64 { select { case v := <-sum: return v; default: return 0 } })",
		Pkg:  "./internal/core",
		Run:  "^TestNormSummedBesideFirstIteration$",
	},
	{
		Name: "books-flush-noop",
		File: "internal/core/skeleton.go",
		From: "s.led.flush()",
		To:   "",
		Pkg:  "./internal/core",
		Run:  "^TestRunLoopContract$",
	},
	{
		Name: "scale-check-drops-overflow",
		File: "internal/datasets/datasets.go",
		From: "if float64(s)*maxBaseDim >= math.MaxInt {",
		To:   "if false {",
		Pkg:  "./internal/datasets",
		Run:  "^TestByNameRefusesOverflowingScale$",
	},
	{
		Name: "allreduce-bcast-from-rank-1",
		File: "internal/mpi/coll.go",
		From: "return c.bcast(0, c.reduce(data, CatAllReduce), CatAllReduce)",
		To:   "return c.bcast(1, c.reduce(data, CatAllReduce), CatAllReduce)",
		Pkg:  "./internal/mpi",
		Run:  "^TestAllReduceTreeTraffic$",
	},
	{
		Name: "init-slice-ignores-offset",
		File: "internal/core/options.go",
		From: "opts.InitH.SubmatrixCols(colOff, colOff+cols)",
		To:   "opts.InitH.SubmatrixCols(0, cols)",
		Pkg:  "./internal/core",
		Run:  "^TestExplicitInitParallelConsistency$",
	},
	{
		Name: "container-skips-crc",
		File: "internal/store/container.go",
		From: "got != want {",
		To:   "false {",
		Pkg:  "./internal/core",
		Run:  "^TestCheckpointRefusesEveryBitFlip$",
	},
	{
		Name: "checkpoint-drops-seed",
		File: "internal/core/checkpoint.go",
		From: "Seed:   opts.Seed,",
		To:   "Seed:   0,",
		Pkg:  "./internal/core",
		Run:  "^TestResumeBitwiseIdentical$",
	},
	{
		Name: "resume-stop-test-drops-history",
		File: "internal/core/skeleton.go",
		From: "s.done = shouldStop(s.hist, s.opts.Tol)",
		To:   "s.done = shouldStop(s.relErr(), s.opts.Tol)",
		Pkg:  "./internal/core",
		Run:  "^TestResumeBitwiseIdentical$",
	},
	{
		Name: "ooc-short-read-ignored",
		File: "internal/ooc/reader.go",
		From: "f.f.ReadAt(raw, f.payload+int64(r0)*f.hdr.Cols*8); err != nil {",
		To:   "f.f.ReadAt(raw, f.payload+int64(r0)*f.hdr.Cols*8); false {",
		Pkg:  "./internal/core",
		Run:  "^TestOutOfCoreReadFailureSurfaces$",
	},
	{
		Name: "ooc-panel-boundary",
		File: "internal/ooc/format.go",
		From: "r1 = r0 + int(h.TileRows)",
		To:   "r1 = r0 + int(h.TileRows) - 1",
		Pkg:  "./internal/ooc",
		Run:  "^TestReadTileRoundTrip$",
	},
	{
		Name: "ooc-open-skips-crc",
		File: "internal/ooc/reader.go",
		From: "store.CheckCRC(f.f, size, tileMagic); err != nil {",
		To:   "store.CheckCRC(f.f, size, tileMagic); false {",
		Pkg:  "./internal/ooc",
		Run:  "^TestTileFileRefusesEveryBitFlip$",
	},
	{
		Name: "reducescatter-offset-by-one",
		File: "internal/mpi/coll.go",
		From: "copy(out, data[offsets[c.rank]:offsets[c.rank]+counts[c.rank]])",
		To:   "copy(out, data[offsets[c.rank]+1:offsets[c.rank]+counts[c.rank]])",
		Pkg:  "./internal/mpi",
		Run:  "^TestReduceScatter$",
	},
	{
		Name: "wire-accepts-trailing-comma",
		File: "internal/serve/wire.go",
		From: "i = skipSpace(b, i+1)\n\t}\n}\n\n// scanNumber",
		To:   "i = skipSpace(b, i+1)\n\t\tif i < len(b) && b[i] == ']' {\n\t\t\treturn s, i + 1, nil\n\t\t}\n\t}\n}\n\n// scanNumber",
		Pkg:  "./internal/serve",
		Run:  "^TestDecodeAgreesWithEncodingJSON$",
	},
	{
		Name: "exact-float-truncates",
		File: "internal/serve/wire.go",
		From: "mant++",
		To:   "",
		Pkg:  "./internal/serve",
		Run:  "^TestScanNumber$",
	},
	{
		Name: "clinger-range-23",
		File: "internal/serve/wire.go",
		From: "const maxExp10 = 22",
		To:   "const maxExp10 = 23",
		Pkg:  "./internal/serve",
		Run:  "^TestScanNumber$",
	},
	{
		Name: "read-header-timeout-unset",
		File: "cmd/nmfserve/main.go",
		From: "ReadHeaderTimeout: readHeaderTimeout, ",
		To:   "",
		Pkg:  "./cmd/nmfserve",
		Run:  "^TestSlowHeadersCutOff$",
	},
	{
		Name: "callers-counts-test-files",
		File: "tools/callers/main.go",
		From: `|| strings.HasSuffix(name, "_test.go") {`,
		To:   "{",
		Pkg:  "./tools/callers",
		Run:  "^TestFixtureVerdicts$",
	},
	{
		Name: "non-finite-factor-not-an-error",
		File: "internal/core/updater.go",
		From: "if !x.IsFinite() {",
		To:   "if false {",
		Pkg:  "./internal/core",
		Run:  "^TestNonFiniteInputIsAnError$",
	},
	{
		Name: "solver-range-unchecked",
		File: "internal/core/options.go",
		From: "if o.Update == nil && !o.Solver.known() {",
		To:   "if false {",
		Pkg:  "./internal/core",
		Run:  "^TestSolverOutOfRangeIsAnError$",
	},
	// The one CSR loop nest runs both sparse products: A·B on A, Aᵀ·B
	// on A's cached transpose.
	{
		Name: "spmm-row-not-cleared",
		File: "internal/sparse/spmm.go",
		From: "clear(crow)",
		To:   "_ = crow",
		Pkg:  "./internal/sparse",
		Run:  "^TestSpMMBitwiseVsReference$",
	},
	{
		Name: "spmm-transpose-rows-descending",
		File: "internal/sparse/spmm.go",
		From: "for i := 0; i < a.Rows; i++ {",
		To:   "for i := a.Rows - 1; i >= 0; i-- {",
		Pkg:  "./internal/sparse",
		Run:  "^TestSpMMBitwiseVsReference$",
	},
	{
		Name: "mtx-surplus-entries-kept",
		File: "internal/sparse/io.go",
		From: "if lines == nnz {",
		To:   "if false {",
		Pkg:  "./internal/sparse",
		Run:  "^TestMatrixMarketRefusesSurplusEntriesEarly$",
	},
	{
		Name: "mtx-symmetric-not-mirrored",
		File: "internal/sparse/io.go",
		From: "if symmetric && i != j {",
		To:   "if false {",
		Pkg:  "./internal/sparse",
		Run:  "^TestMatrixMarketGrammar$",
	},
	{
		Name: "mtx-missing-value-defaults",
		File: "internal/sparse/io.go",
		From: "if len(fields) != width {",
		To:   "if len(fields) < idx || len(fields) > width {",
		Pkg:  "./internal/sparse",
		Run:  "^TestMatrixMarketGrammar$",
	},
	{
		Name: "mtx-integer-accepts-fraction",
		File: "internal/sparse/io.go",
		From: "if integer {",
		To:   "if false {",
		Pkg:  "./internal/sparse",
		Run:  "^TestMatrixMarketGrammar$",
	},
	{
		Name: "project-lone-negzero-kept",
		File: "internal/core/project.go",
		From: "if c > 1 || slices.ContainsFunc(f.Data, negZero) {",
		To:   "if c > 1 || slices.ContainsFunc(f.Data, func(float64) bool { return false }) {",
		Pkg:  "./internal/core",
		Run:  "^(TestProjectSingleColumnEqualsBatchColumn|FuzzProjectLoneColumn)$",
	},
	{
		Name: "project-nonfinite-gram-accepted",
		File: "internal/core/project.go",
		From: "if !p.finite {",
		To:   "if false {",
		Pkg:  "./internal/core",
		Run:  "^TestProjectorNonFiniteRefreshedBasisFails$",
	},
	{
		Name: "atx-generic-skips-negatives",
		File: "internal/mat/axpy_impl.go",
		From: "if v != 0 {",
		To:   "if v > 0 {",
		Pkg:  "./internal/mat",
		Run:  "^TestAtxNZBitwise$",
	},
	// The register tiles (DESIGN decisions 8 and 12): a running sum
	// carried through C across a reduction chunk, a masked edge, and
	// the AVX-512 packed tile's second panel.
	{
		Name: "strided-chunk-restarts-at-zero",
		File: "internal/mat/tile_amd64.s",
		From: "VMOVUPD (DI), Y0",
		To:   "VXORPD  Y0, Y0, Y0",
		Pkg:  "./internal/mat",
		Run:  "^TestStridedTileEdges$",
		ISA:  "avx2",
	},
	{
		Name: "strided-store-past-last-column",
		File: "internal/mat/tile_amd64.s",
		From: "VMASKMOVPD Y1, Y13, 32(DI)",
		To:   "VMOVUPD Y1, 32(DI)",
		Pkg:  "./internal/mat",
		Run:  "^TestStridedTileEdges$",
		ISA:  "avx2",
	},
	{
		Name: "avx512-pair-wrong-second-panel",
		File: "internal/mat/tile512_amd64.s",
		From: "VMOVUPD      offb(R12), Z9;",
		To:   "VMOVUPD      offb(SI), Z9; ",
		Pkg:  "./internal/mat",
		Run:  "^TestTileMatchesReference$",
		ISA:  "avx512",
	},
}
