package main

// reason says why an exported name under internal/ that no non-test
// file refers to stays.
type reason int

const (
	// testSeam: a fake or a hook the package's tests drive it through.
	testSeam reason = iota + 1
	// baseline: a reference or ablation baseline the measured path is
	// compared with.
	baseline
	// facade: a method of a type the root package aliases, so a
	// library user reaches it with no caller in this repo.
	facade
)

// row keeps one exported name under internal/ that no non-test file
// refers to, for a reason. Name is the package path after internal/,
// then the type for a method, then the name: "mpi.Comm.AllGatherLinear".
type row struct {
	Name string
	Why  reason
}

// table lists every such name. A row whose name is gone, or has gained
// a caller, fails the gate as stale.
var table = []row{
	// The naive all-gather that DESIGN decision 1 and
	// BenchmarkAblationCollectives price the tree against.
	{"mpi.Comm.AllGatherLinear", baseline},

	// Methods of hpcnmf.Dense, hpcnmf.CSR, hpcnmf.Streaming and
	// hpcnmf.FaultInjector.
	{"mat.Dense.Equal", facade},
	{"sparse.CSR.At", facade},
	{"sparse.CSR.Equal", facade},
	{"core.Streaming.Factors", facade},
	{"fault.Injector.Injected", facade},
}
