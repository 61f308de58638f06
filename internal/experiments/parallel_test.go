package experiments

import (
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mugi/internal/runner"
)

// TestParallelOutputMatchesSerial is the runner's determinism contract:
// every registry artifact rendered with the worker pool at parallelism 8
// must be byte-identical to the serial rendering. Under -race this also
// exercises the concurrent sweep paths.
// The serial rendering must also match its pinned digest in
// testdata/registry.sha256, so the registry output cannot drift
// unnoticed; a mismatch prints the artifact's new line.
func TestParallelOutputMatchesSerial(t *testing.T) {
	slow := map[string]bool{"fig6": true, "fig7": true, "fig12": true, "fig14": true, "fig17": true}
	sums := registrySums(t)
	defer runner.SetParallelism(0)
	for _, e := range Registry() {
		want, ok := sums[e.ID]
		if !ok {
			t.Errorf("%s: no line in testdata/registry.sha256", e.ID)
		}
		delete(sums, e.ID)
		if testing.Short() && slow[e.ID] {
			continue
		}
		runner.SetParallelism(1)
		serial := e.Run().String()
		if got := fmt.Sprintf("%x", sha256.Sum256([]byte(serial))); got != want {
			t.Errorf("%s: serial rendering digest differs from testdata/registry.sha256; new line:\n%s %s", e.ID, e.ID, got)
		}

		runner.SetParallelism(8)
		parallel := e.Run().String()

		if serial != parallel {
			t.Errorf("%s: parallel rendering diverges from serial", e.ID)
		}
	}
	for id := range sums {
		t.Errorf("testdata/registry.sha256 pins %s, which is not in the registry", id)
	}
}

// registrySums reads testdata/registry.sha256: one "id sha256" line per
// registry experiment, the digest of its serial rendering.
func registrySums(t *testing.T) map[string]string {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("testdata", "registry.sha256"))
	if err != nil {
		t.Fatal(err)
	}
	sums := map[string]string{}
	for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		id, sum, ok := strings.Cut(line, " ")
		if !ok {
			t.Fatalf("testdata/registry.sha256: malformed line %q", line)
		}
		sums[id] = sum
	}
	return sums
}
