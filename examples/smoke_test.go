// Smoke tests for the examples: every example must vet clean, build, and —
// for the quick ones — actually run to completion. Examples are the repo's
// executable documentation; this suite keeps them from rotting as the
// packages they demonstrate evolve.
package examples

import (
	"context"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
	"time"
)

// examplesTable lists every example with its smoke policy. run=false marks
// demos whose full workload is too heavy for a test run (they stream 100k+
// tuples over real TCP for tens of seconds); those are still vetted and
// built.
var examplesTable = []struct {
	name    string
	run     bool
	timeout time.Duration
}{
	{name: "quickstart", run: true, timeout: 60 * time.Second},
	{name: "clustering64", run: true, timeout: 60 * time.Second},
	{name: "dataflowapp", run: true, timeout: 60 * time.Second},
	{name: "heterogeneous", run: true, timeout: 60 * time.Second},
	{name: "keyedskew", run: true, timeout: 60 * time.Second},
	{name: "chaosregion", run: false},
}

func TestExamplesTableIsComplete(t *testing.T) {
	entries, err := os.ReadDir(".")
	if err != nil {
		t.Fatal(err)
	}
	listed := make(map[string]bool, len(examplesTable))
	for _, e := range examplesTable {
		listed[e.name] = true
	}
	for _, ent := range entries {
		if !ent.IsDir() {
			continue
		}
		if !listed[ent.Name()] {
			t.Errorf("example %q missing from the smoke table; add it (run or build-only)", ent.Name())
		}
	}
}

func TestExamplesSmoke(t *testing.T) {
	tmp := t.TempDir()
	for _, ex := range examplesTable {
		ex := ex
		t.Run(ex.name, func(t *testing.T) {
			t.Parallel()
			pkg := "streambalance/examples/" + ex.name

			vet := exec.Command("go", "vet", pkg)
			vet.Dir = ".."
			if out, err := vet.CombinedOutput(); err != nil {
				t.Fatalf("go vet %s: %v\n%s", pkg, err, out)
			}

			bin := filepath.Join(tmp, ex.name)
			build := exec.Command("go", "build", "-o", bin, pkg)
			build.Dir = ".."
			if out, err := build.CombinedOutput(); err != nil {
				t.Fatalf("go build %s: %v\n%s", pkg, err, out)
			}

			if !ex.run {
				return
			}
			if testing.Short() {
				t.Skip("example run skipped in short mode")
			}
			ctx, cancel := context.WithTimeout(context.Background(), ex.timeout)
			defer cancel()
			cmd := exec.CommandContext(ctx, bin)
			out, err := cmd.CombinedOutput()
			if ctx.Err() != nil {
				t.Fatalf("example %s did not finish within %v\n%s", ex.name, ex.timeout, out)
			}
			if err != nil {
				t.Fatalf("example %s failed: %v\n%s", ex.name, err, out)
			}
		})
	}
}
