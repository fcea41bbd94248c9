package core

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/step_nil_service.golden from the current Step")

// shiftPlant is a scripted region for Step: four workers with capacities in
// tuples/s, offered a demand a little above their sum by weight share. From
// step shiftAt on, worker 0 and worker 1 swap capacities, as the slow load
// moves in the paper's Section 6 runs. A worker offered more than its capacity
// holds the splitter in proportion to its overload, and (having had work
// queued all interval) reports its capacity as its service rate.
type shiftPlant struct {
	shiftAt int
}

const plantDemand = 90_000

func (p shiftPlant) capacities(step int) []float64 {
	if step >= p.shiftAt {
		return []float64{25_000, 8_333, 25_000, 25_000}
	}
	return []float64{8_333, 25_000, 25_000, 25_000}
}

// interval returns one interval's blocking rates and service rates at the
// given weights.
func (p shiftPlant) interval(step int, weights []int) (rates, service []float64) {
	caps := p.capacities(step)
	rates = make([]float64, len(caps))
	service = make([]float64, len(caps))
	total := 0.0
	for j, c := range caps {
		offered := float64(weights[j]) / DefaultUnits * plantDemand
		if over := offered/c - 1; over > 0 {
			rates[j], service[j] = over, c
			total += over
		}
	}
	for j := range rates {
		rates[j] /= 1 + total
	}
	return rates, service
}

// nilServiceTrace runs the plant through a shift with the given service
// input (nil, or all-invalid) and renders each Step's weights and objective.
func nilServiceTrace(t *testing.T, service []float64) string {
	t.Helper()
	p := shiftPlant{shiftAt: 30}
	b, err := NewBalancer(Config{Connections: 4, DecayEnabled: true})
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	for step := 0; step < 60; step++ {
		rates, _ := p.interval(step, b.Weights())
		w, err := b.Step(rates, service)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&sb, "%v %s\n", w, strconv.FormatFloat(b.LastObjective(), 'g', -1, 64))
	}
	return sb.String()
}

// TestStepWithoutServiceIsThePapers pins Step without service rates to the
// weights and objectives the paper's Step (before the service input existed)
// produced over a scripted shift, bit for bit: sim and every region that
// never waits for credit keep exactly that controller.
func TestStepWithoutServiceIsThePapers(t *testing.T) {
	golden := filepath.Join("testdata", "step_nil_service.golden")
	got := nilServiceTrace(t, nil)
	if *update {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Fatalf("Step(rates, nil) left the recorded trace:\ngot\n%swant\n%s", got, want)
	}
	if invalid := nilServiceTrace(t, make([]float64, 4)); invalid != got {
		t.Fatalf("an all-invalid service input changed Step:\n%s", invalid)
	}
}

// TestChangePointRescalesOnlyTheShifted drives the plant with service rates:
// the worker that slowed is the only change point, its weight goes under its
// new capacity share within two Steps of it, and the other workers keep their
// observations at and below their weights.
func TestChangePointRescalesOnlyTheShifted(t *testing.T) {
	p := shiftPlant{shiftAt: 30}
	b, err := NewBalancer(Config{Connections: 4, DecayEnabled: true})
	if err != nil {
		t.Fatal(err)
	}
	share := DefaultUnits * 8_333 / 83_333 // worker 1's capacity share after the shift
	changedAt := -1
	for step := 0; step < 60; step++ {
		rates, service := p.interval(step, b.Weights())
		before := make([]map[int]RawCell, 4)
		weights := b.Weights()
		for j := range before {
			before[j] = b.Func(j).RawCells()
		}
		w, err := b.Step(rates, service)
		if err != nil {
			t.Fatal(err)
		}
		cp := b.ChangePoints()
		switch {
		case cp == nil:
		case changedAt < 0 && slices.Equal(cp, []int{1}) && step >= p.shiftAt:
			changedAt = step
			for _, j := range []int{0, 2, 3} {
				kept := b.Func(j).RawCells()
				for x, c := range before[j] {
					if x > weights[j] {
						continue
					}
					if k, ok := kept[x]; !ok || k.Count < c.Count {
						t.Fatalf("step %d: connection %d lost its cell at %d (weight %d)", step, j, x, weights[j])
					}
				}
			}
		default:
			t.Fatalf("step %d: change points %v (first at %d)", step, cp, changedAt)
		}
		if changedAt >= 0 && step <= changedAt+1 && w[1] <= share {
			return
		}
		if changedAt >= 0 && step > changedAt+1 {
			break
		}
	}
	t.Fatalf("worker 1 not under its capacity share %d within two Steps of its change point (at %d): weights %v", share, changedAt, b.Weights())
}

// TestServiceNoiseRaisesNoChangePoint feeds ±20 % noise around steady service
// rates, the spread the changeFactor derivation allows for.
func TestServiceNoiseRaisesNoChangePoint(t *testing.T) {
	b, err := NewBalancer(Config{Connections: 4, DecayEnabled: true})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	means := []float64{8_333, 25_000, 25_000, 25_000}
	service := make([]float64, 4)
	for step := 0; step < 2000; step++ {
		for j, m := range means {
			service[j] = m * (0.8 + 0.4*rng.Float64())
		}
		if _, err := b.Step([]float64{0.3, 0.2, 0.2, 0.2}, service); err != nil {
			t.Fatal(err)
		}
		if cp := b.ChangePoints(); cp != nil {
			t.Fatalf("step %d: change points %v under ±20%% noise", step, cp)
		}
	}
	if r := b.ServiceRate(0); r < 0.8*means[0] || r > 1.2*means[0] {
		t.Fatalf("service rate %v has left the noise band around %v", r, means[0])
	}
}
