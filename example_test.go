package hpcnmf_test

import (
	"fmt"

	"hpcnmf"
)

// ExampleRun factorizes a tiny exactly-rank-1 matrix: every row is a
// multiple of the same non-negative pattern, so NMF with k=1 fits it
// essentially exactly.
func ExampleRun() {
	a := hpcnmf.DenseFromRows([][]float64{
		{1, 2, 3},
		{2, 4, 6},
		{3, 6, 9},
	})
	res, err := hpcnmf.Run(hpcnmf.WrapDense(a), hpcnmf.Options{
		K: 1, MaxIter: 20, Seed: 1, ComputeError: true,
	})
	if err != nil {
		panic(err)
	}
	fmt.Printf("relative error below 1e-10: %v\n", res.RelErr[len(res.RelErr)-1] < 1e-10)
	fmt.Printf("factors non-negative: %v\n", res.W.Min() >= 0 && res.H.Min() >= 0)
	// Output:
	// relative error below 1e-10: true
	// factors non-negative: true
}

// ExampleRunParallel shows the paper's central reproducibility
// property (§6.1.3): the parallel algorithm computes the same factors
// as the sequential one for a shared seed.
func ExampleRunParallel() {
	ds, err := hpcnmf.GenerateDataset("dsyn", 0.02, 11)
	if err != nil {
		panic(err)
	}
	opts := hpcnmf.Options{K: 3, MaxIter: 3, Seed: 4}
	seq, err := hpcnmf.Run(ds.Matrix, opts)
	if err != nil {
		panic(err)
	}
	par, err := hpcnmf.RunParallel(ds.Matrix, 4, opts)
	if err != nil {
		panic(err)
	}
	fmt.Printf("same result on 4 ranks: %v\n", par.W.MaxDiff(seq.W) < 1e-8)
	// Output:
	// same result on 4 ranks: true
}

// ExampleChooseGrid shows the §5 grid rule: squarish matrices get 2D
// grids, tall-skinny matrices degenerate to 1D.
func ExampleChooseGrid() {
	square := hpcnmf.ChooseGrid(10000, 10000, 16)
	tall := hpcnmf.ChooseGrid(1000000, 100, 16)
	fmt.Printf("square matrix: %dx%d grid\n", square.PR, square.PC)
	fmt.Printf("tall-skinny:   %dx%d grid\n", tall.PR, tall.PC)
	// Output:
	// square matrix: 4x4 grid
	// tall-skinny:   16x1 grid
}

// ExampleOptions_regularization shows L1 regularization sparsifying
// the factors (the sparse-NMF variant).
func ExampleOptions_regularization() {
	ds, err := hpcnmf.GenerateDataset("dsyn", 0.02, 21)
	if err != nil {
		panic(err)
	}
	plain, err := hpcnmf.Run(ds.Matrix, hpcnmf.Options{K: 4, MaxIter: 10, Seed: 2})
	if err != nil {
		panic(err)
	}
	sparse, err := hpcnmf.Run(ds.Matrix, hpcnmf.Options{K: 4, MaxIter: 10, Seed: 2, L1W: 1.0, L1H: 1.0})
	if err != nil {
		panic(err)
	}
	zeros := func(d *hpcnmf.Dense) int {
		n := 0
		for _, v := range d.Data {
			if v == 0 {
				n++
			}
		}
		return n
	}
	fmt.Printf("L1 produces sparser W: %v\n", zeros(sparse.W) > zeros(plain.W))
	// Output:
	// L1 produces sparser W: true
}
