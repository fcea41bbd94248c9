package harness

import (
	"bytes"
	"flag"
	"io"
	"os"
	"path/filepath"
	"testing"
	"time"
)

var update = flag.Bool("update", false, "rewrite the figure CSVs under testdata/ from the current code")

// TestFigureGoldens pins the CSVs `sbench -fig 9|10|ablations -quick -csv`
// writes for Figures 9 and 10 and the decay ablation, at the same reduced
// scales. The simulator is deterministic, so the bytes are too: a change to
// them is a change to what EXPERIMENTS.md reports, made on purpose with
// `go test ./internal/harness -run TestFigureGoldens -update`.
func TestFigureGoldens(t *testing.T) {
	type report interface{ WriteCSV(io.Writer) error }
	sweep := func(fig func(SweepOptions) (SweepReport, error), tuples uint64) func() (report, error) {
		return func() (report, error) { return fig(SweepOptions{Sizes: []int{2, 8}, Tuples: tuples}) }
	}
	for _, fig := range []struct {
		name string
		run  func() (report, error)
	}{
		{"fig09static", sweep(Fig9Static, 40_000)},
		{"fig09dynamic", sweep(Fig9Dynamic, 40_000)},
		{"fig10static", sweep(Fig10Static, 30_000)},
		{"fig10dynamic", sweep(Fig10Dynamic, 30_000)},
		{"ablation_decay", func() (report, error) { return AblationDecay(120 * time.Second) }},
	} {
		t.Run(fig.name, func(t *testing.T) {
			r, err := fig.run()
			if err != nil {
				t.Fatal(err)
			}
			var got bytes.Buffer
			if err := r.WriteCSV(&got); err != nil {
				t.Fatal(err)
			}
			golden := filepath.Join("testdata", fig.name+".csv")
			if *update {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(golden, got.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Bytes(), want) {
				t.Errorf("%s.csv differs from %s:\n%s", fig.name, golden, got.String())
			}
		})
	}
}
