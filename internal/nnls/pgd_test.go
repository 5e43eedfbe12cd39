package nnls

import (
	"slices"
	"testing"

	"hpcnmf/internal/mat"
)

func TestPGDDecreasesObjective(t *testing.T) {
	g, f, c, b := problem(40, 6, 10, 31)
	xInit := mat.NewDense(6, 10)
	xInit.Fill(0.5)
	prev := objective(c, b, xInit)
	x := xInit
	pgd := NewPGD(1)
	for i := 0; i < 30; i++ {
		var err error
		x, _, err = solve(pgd, g, f, x)
		if err != nil {
			t.Fatal(err)
		}
		cur := objective(c, b, x)
		if cur > prev*(1+1e-9) {
			t.Fatalf("PGD increased objective at sweep %d: %g -> %g", i, prev, cur)
		}
		prev = cur
	}
	if x.Min() < 0 {
		t.Fatal("PGD left the nonnegative orthant")
	}
}

func TestPGDApproachesExact(t *testing.T) {
	g, f, c, b := problem(40, 5, 8, 37)
	exact, _, err := solve(NewBPP(), g, f, nil)
	if err != nil {
		t.Fatal(err)
	}
	x, _, err := solve(NewPGD(3000), g, f, nil)
	if err != nil {
		t.Fatal(err)
	}
	objExact := objective(c, b, exact)
	objPGD := objective(c, b, x)
	if objPGD > objExact*1.01+1e-9 {
		t.Fatalf("PGD objective %g vs exact %g", objPGD, objExact)
	}
}

func TestPGDZeroGram(t *testing.T) {
	g := mat.NewDense(3, 3)
	f := mat.FromRows([][]float64{{1, -1}, {0, 2}, {-3, 0}})
	x, _, err := solve(NewPGD(5), g, f, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !x.IsFinite() || x.Min() < 0 {
		t.Fatal("PGD mishandled zero Gram")
	}
}

func TestPGDReactivatesZeros(t *testing.T) {
	// Start from an all-zero iterate; MU is stuck there forever, PGD
	// must escape because the projection of a gradient step can
	// reactivate zero entries.
	g, f, c, b := problem(30, 4, 5, 41)
	x0 := mat.NewDense(4, 5)
	mu := NewMU(50)
	xmu, _, err := solve(mu, g, f, x0)
	if err != nil {
		t.Fatal(err)
	}
	if slices.Max(xmu.Data) != 0 {
		t.Fatal("MU escaped the zero fixed point (unexpected)")
	}
	pgd := NewPGD(50)
	xpgd, _, err := solve(pgd, g, f, x0)
	if err != nil {
		t.Fatal(err)
	}
	if objective(c, b, xpgd) >= objective(c, b, x0) {
		t.Fatal("PGD failed to improve from the zero start")
	}
}

func TestPGDName(t *testing.T) {
	if NewPGD(1).Name() != "PGD" {
		t.Fatal("wrong name")
	}
}
