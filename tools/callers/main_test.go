package main

import (
	"slices"
	"testing"
)

// TestFixtureVerdicts runs the gate on testdata/mod, a module with one
// declaration under internal/ per verdict, and a table with one good
// row and two stale ones.
func TestFixtureVerdicts(t *testing.T) {
	rows := []row{
		{"a.Tabled", testSeam},
		{"a.Gone", baseline},
		{"a.T.Used", facade},
	}
	findings, _, err := check("testdata/mod", rows)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, f := range findings {
		got = append(got, f.Name+": "+f.Why)
	}
	want := []string{
		"a.Gone: stale row: no exported declaration under internal/ has this name",
		"a.Recursive: no non-test caller",
		"a.T.OnlyTested: no non-test caller",
		"a.T.Used: stale row: it has a non-test caller",
		"a.Unread: no non-test caller",
	}
	if !slices.Equal(got, want) {
		t.Fatalf("findings:\n%q\nwant:\n%q", got, want)
	}
	if findings[2].Pos != "testdata/mod/internal/a/a.go:8" {
		t.Errorf("a.T.OnlyTested found at %q, want its declaration", findings[2].Pos)
	}
}

// TestRowNeedsReason: a row must give one of the three reasons.
func TestRowNeedsReason(t *testing.T) {
	findings, _, err := check("testdata/mod", []row{{"a.Tabled", 0}, {"a.Tabled", testSeam}})
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, f := range findings {
		if f.Name == "a.Tabled" {
			got = append(got, f.Why)
		}
	}
	if want := []string{"stale row: listed twice", "stale row: no reason given"}; !slices.Equal(got, want) {
		t.Errorf("a.Tabled findings %q, want %q", got, want)
	}
}

// TestRepoHasNoUncalledExports is the gate itself, on this repository
// and its table.
func TestRepoHasNoUncalledExports(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole repository and the standard library from source")
	}
	findings, _, err := check("../..", table)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range findings {
		t.Error(f)
	}
}
