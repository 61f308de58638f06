package main

import "testing"

// TestTreeClean is the lint gate as a test: the full suite over the
// whole repository must report nothing. Every real finding is either
// fixed or carries a reasoned waiver, so a diagnostic here means a
// regression against one of the four contracts — the same failure `make
// analyze` produces in CI, kept in the test suite so `go test ./...`
// alone also catches it.
func TestTreeClean(t *testing.T) {
	if testing.Short() {
		t.Skip("tree-wide analysis in short mode")
	}
	analyzers := []*Analyzer{
		newDetmap(inDeterministicScope),
		newNoclock(inDeterministicScope),
		newExhauststate(),
	}
	diags, err := analyze("../..", []string{"./..."}, analyzers, true)
	if err != nil {
		t.Fatalf("analyze: %v", err)
	}
	for _, d := range diags {
		t.Errorf("%s", d)
	}
}
