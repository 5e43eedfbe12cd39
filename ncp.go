package hpcnmf

import "hpcnmf/internal/ncp"

// Tensor3 is a dense 3-way tensor for non-negative CP decomposition
// (the paper's future-work extension, §7).
type Tensor3 = ncp.Tensor3

// NCPOptions configures a CP decomposition.
type NCPOptions = ncp.Options

// NCPResult reports CP factors and the per-sweep error history.
type NCPResult = ncp.Result

// NewTensor3 returns a zero I×J×K tensor.
func NewTensor3(i, j, k int) *Tensor3 { return ncp.NewTensor3(i, j, k) }

// TensorFromKruskal materializes the rank-r tensor [[A, B, C]].
func TensorFromKruskal(a, b, c *Dense) *Tensor3 { return ncp.FromKruskal(a, b, c) }

// RunNCP decomposes T ≈ [[A, B, C]] with non-negative factors via
// alternating NNLS sweeps (ANLS-BPP by default). It is RunNCPParallel
// at p = 1 and reads t in place. A solver's error is returned wrapped,
// so errors.Is finds it.
func RunNCP(t *Tensor3, opts NCPOptions) (*NCPResult, error) { return ncp.Run(t, opts) }

// RunNCPParallel runs the decomposition on p simulated ranks with the
// tensor distributed in mode-0 slabs (views of t, never copies); with
// a shared seed every p computes the same iterates up to reduction
// order. A solver's error on any rank is returned wrapped, so
// errors.Is finds it.
func RunNCPParallel(t *Tensor3, p int, opts NCPOptions) (*NCPResult, error) {
	return ncp.RunParallel(t, p, opts)
}
