package grid

import (
	"strings"
	"testing"
)

func TestFactorizationsEnumeratesDivisorPairs(t *testing.T) {
	for _, tc := range []struct {
		p    int
		want []Grid
	}{
		{1, []Grid{{1, 1}}},
		{7, []Grid{{1, 7}, {7, 1}}},
		{12, []Grid{{1, 12}, {2, 6}, {3, 4}, {4, 3}, {6, 2}, {12, 1}}},
	} {
		got := Factorizations(tc.p)
		if len(got) != len(tc.want) {
			t.Fatalf("Factorizations(%d) = %v, want %v", tc.p, got, tc.want)
		}
		for i := range got {
			if got[i] != tc.want[i] {
				t.Fatalf("Factorizations(%d)[%d] = %v, want %v", tc.p, i, got[i], tc.want[i])
			}
		}
		for _, g := range got {
			if g.PR*g.PC != tc.p {
				t.Fatalf("Factorizations(%d) contains non-factorization %v", tc.p, g)
			}
		}
	}
}

func TestFeasibleRules(t *testing.T) {
	if err := Feasible(48, 40, 4, 8, 1); err != nil {
		t.Fatalf("48x40 k=4 on 8x1 should be feasible: %v", err)
	}
	for _, tc := range []struct {
		name             string
		m, n, k, pr, pc  int
		wantErrSubstring string
	}{
		{"pr exceeds rows", 4, 100, 1, 8, 1, "processor rows"},
		{"pc exceeds cols", 100, 4, 1, 1, 8, "processor columns"},
		{"row blocks thinner than k", 16, 100, 5, 4, 1, "thinner than rank"},
		{"col blocks thinner than k", 100, 16, 5, 1, 4, "thinner than rank"},
		{"invalid shape", 10, 10, 1, 0, 3, "invalid"},
	} {
		err := Feasible(tc.m, tc.n, tc.k, tc.pr, tc.pc)
		if err == nil {
			t.Fatalf("%s: Feasible(%d,%d,%d,%d,%d) = nil, want error",
				tc.name, tc.m, tc.n, tc.k, tc.pr, tc.pc)
		}
		if !strings.Contains(err.Error(), tc.wantErrSubstring) {
			t.Fatalf("%s: error %q does not mention %q", tc.name, err, tc.wantErrSubstring)
		}
	}
}
