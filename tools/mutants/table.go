package main

// mutant is one row of the gate: replacing the single occurrence of
// From in File with To must make a test matched by Run in package Pkg
// fail.
type mutant struct {
	Name     string
	File     string // relative to the module root
	From, To string
	Pkg      string // package whose tests must kill it
	Run      string // go test -run pattern naming the killing tests
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
	{
		Name: "ledger-stop-noop",
		File: "internal/core/updater.go",
		From: "e.led.Stop(ps, st.Flops)",
		To:   "_ = ps",
		Pkg:  "./internal/core",
		Run:  "^TestRunLoopContract$",
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
		Name: "mttkrp-mode1-rows-unswapped",
		File: "internal/ncp/tensor.go",
		From: "oi, si = j, i",
		To:   "oi, si = i, j",
		Pkg:  "./internal/ncp",
		Run:  "^TestMTTKRPAgainstUnfolding$",
	},
	{
		Name: "symnmf-half-drops-penalty-rhs",
		File: "internal/core/symnmf.go",
		From: "rhs.Data[i] += alpha * oT.Data[i]",
		To:   "rhs.Data[i] += 0 * oT.Data[i]",
		Pkg:  "./internal/core",
		Run:  "^TestSymNMFFitsSymmetricLowRank$",
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
		Name: "nndsvd-other-sides-norm",
		File: "internal/core/svd.go",
		From: "s.out.Set(i, c, f*x/norms[si])",
		To:   "s.out.Set(i, c, f*x/norms[1-si])",
		Pkg:  "./internal/core",
		Run:  "^TestNNDSVDComponentsBalanced$",
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
}
