package core

import "testing"

// TestShouldStopIgnoresErrorIncrease is the regression test for the
// oscillating-solver bug: an error *increase* between iterations used
// to satisfy relErr[n-2]-relErr[n-1] < tol (the delta is negative) and
// stop the run as "converged". Only a non-negative improvement below
// tol may stop.
func TestShouldStopIgnoresErrorIncrease(t *testing.T) {
	const tol = 1e-3
	cases := []struct {
		name   string
		relErr []float64
		want   bool
	}{
		{"empty", nil, false},
		{"single", []float64{0.5}, false},
		{"improving above tol", []float64{0.5, 0.4}, false},
		{"converged", []float64{0.40001, 0.40000}, true},
		{"plateau", []float64{0.4, 0.4}, true},
		// The bug: oscillation ends on an *increase*; must keep going.
		{"oscillating up", []float64{0.40, 0.39, 0.41}, false},
		{"diverging", []float64{0.4, 0.5}, false},
		{"recovered after oscillation", []float64{0.40, 0.42, 0.419999}, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := shouldStop(tc.relErr, tol); got != tc.want {
				t.Errorf("shouldStop(%v, %g) = %v, want %v", tc.relErr, tol, got, tc.want)
			}
		})
	}
	// tol ≤ 0 disables the rule entirely.
	if shouldStop([]float64{0.4, 0.4}, 0) {
		t.Error("tol=0 should disable the stopping rule")
	}
}

// TestGradConvergedZeroScale: when ‖WᵀA‖ = 0 (an all-zero data matrix)
// there is no gradient scale to compare against, so only an exactly
// zero projected gradient counts as converged — and TolGrad ≤ 0 still
// disables the rule.
func TestGradConvergedZeroScale(t *testing.T) {
	if !gradConverged(1e-3, 0, 0) {
		t.Error("zero gradient at zero scale is not converged")
	}
	if gradConverged(1e-3, 1e-30, 0) {
		t.Error("non-zero gradient at zero scale counts as converged")
	}
	if gradConverged(0, 0, 0) {
		t.Error("TolGrad=0 should disable the stopping rule")
	}
}
