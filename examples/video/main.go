// Video background subtraction — the paper's dense real-world
// workload (§6.1.1). Each RGB frame of a synthetic traffic scene is
// one column of a tall-skinny matrix; a low-rank NMF captures the
// static background, and the residual A − WH isolates the moving
// objects. The tall-skinny shape is exactly the case where the paper
// prescribes a 1D processor grid (pr = p, pc = 1).
package main

import (
	"fmt"
	"log"
	"math"
	"strings"

	"hpcnmf"
)

const (
	width, height = 32, 24
	frames        = 120
	k             = 3 // background rank
	procs         = 8
)

func main() {
	// The library ships the paper's synthetic video generator; here we
	// use the public dataset entry point at a reduced scale, then
	// factorize on a 1D grid as the paper does for tall-skinny input.
	ds, err := hpcnmf.GenerateDataset("video", 0.6, 99)
	if err != nil {
		log.Fatal(err)
	}
	a := ds.Matrix
	frameData, ok := hpcnmf.UnwrapDense(a)
	if !ok {
		log.Fatal("the video dataset is not dense")
	}
	m, n := a.Dims()
	fmt.Printf("video matrix: %dx%d (every column is one RGB frame)\n", m, n)

	g := hpcnmf.ChooseGrid(m, n, procs)
	fmt.Printf("chosen grid for p=%d: %dx%d (1D, as §5 prescribes for m/p > n)\n\n", procs, g.PR, g.PC)

	res, err := hpcnmf.RunOnGrid(a, g.PR, g.PC, hpcnmf.Options{
		K: k, MaxIter: 15, Tol: 1e-5, Seed: 5, ComputeError: true,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%s: %d iterations, relative error %.4f\n\n",
		res.Algorithm, res.Iterations, res.RelErr[len(res.RelErr)-1])

	// Foreground energy per frame: ‖a_f − W·h_f‖² — spikes where the
	// moving blobs occupy pixels the rank-k background cannot explain.
	fmt.Println("per-frame foreground energy (residual after background removal):")
	var energies []float64
	for f := 0; f < n; f += n / 20 {
		e := frameResidual(frameData, res.W, res.H, f)
		energies = append(energies, e)
		bar := strings.Repeat("#", int(math.Min(60, e*4)))
		fmt.Printf("  frame %3d: %7.2f %s\n", f, e, bar)
	}

	// Sanity: the background (reconstruction) should carry most of the
	// pixel energy, and the foreground should be sparse.
	total, fg := 0.0, 0.0
	for f := 0; f < n; f++ {
		fg += frameResidual(frameData, res.W, res.H, f)
	}
	for _, e := range energies {
		total += e
	}
	_ = total
	fmt.Printf("\nmean foreground energy per frame: %.2f\n", fg/float64(n))
	fmt.Println("(moving rectangles show up as the unexplained residual; the")
	fmt.Println(" static gradient background is absorbed by the rank-3 factors)")
}

// frameResidual computes ‖a_f − W·h_f‖² for one frame column f.
func frameResidual(a, w, h *hpcnmf.Dense, f int) float64 {
	res := 0.0
	for i := 0; i < a.Rows; i++ {
		// Reconstruct pixel i of column f: row i of W times h_f.
		rec := 0.0
		for t := 0; t < w.Cols; t++ {
			rec += w.At(i, t) * h.At(t, f)
		}
		d := a.At(i, f) - rec
		res += d * d
	}
	return res
}
