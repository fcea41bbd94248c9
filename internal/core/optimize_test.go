package core

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// tableFunc is a monotone step function over a small domain, used to build
// deterministic optimizer instances.
type tableFunc []float64

func (f tableFunc) Eval(w int) float64 {
	if w < 0 {
		w = 0
	}
	if w >= len(f) {
		w = len(f) - 1
	}
	return f[w]
}

// randomMonotoneFunc generates a random non-decreasing table over 0..units.
func randomMonotoneFunc(rng *rand.Rand, units int) tableFunc {
	f := make(tableFunc, units+1)
	v := 0.0
	for w := 1; w <= units; w++ {
		if rng.Intn(3) > 0 {
			v += rng.Float64() * 5
		}
		f[w] = v
	}
	return f
}

func TestSolveFoxKnownInstances(t *testing.T) {
	tests := []struct {
		name    string
		p       Problem
		want    []int
		wantObj float64
	}{
		{
			name: "slow connection starved",
			p: Problem{
				// Connection 0 blocks immediately; connection 1 never blocks.
				Funcs: []Func{
					tableFunc{0, 10, 20, 30, 40, 50, 60, 70, 80, 90, 100},
					tableFunc{0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0},
				},
				Total: 10,
			},
			want:    []int{0, 10},
			wantObj: 0,
		},
		{
			name: "minimum forces allocation to slow connection",
			p: Problem{
				Funcs: []Func{
					tableFunc{0, 10, 20, 30, 40, 50, 60, 70, 80, 90, 100},
					tableFunc{0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0},
				},
				Total: 10,
				Min:   []int{3, 0},
			},
			want:    []int{3, 7},
			wantObj: 30,
		},
		{
			name: "maximum forces spill to slow connection",
			p: Problem{
				Funcs: []Func{
					tableFunc{0, 10, 20, 30, 40, 50, 60, 70, 80, 90, 100},
					tableFunc{0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0},
				},
				Total: 10,
				Max:   []int{10, 6},
			},
			want:    []int{4, 6},
			wantObj: 40,
		},
		{
			name: "equal capacity splits evenly",
			p: Problem{
				Funcs: []Func{
					tableFunc{0, 0, 0, 0, 0, 1, 2, 3, 4, 5, 6},
					tableFunc{0, 0, 0, 0, 0, 1, 2, 3, 4, 5, 6},
				},
				Total: 10,
			},
			wantObj: 1,
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			sol, err := SolveFox(tt.p)
			if err != nil {
				t.Fatalf("SolveFox: %v", err)
			}
			if tt.want != nil {
				for j := range tt.want {
					if sol.Weights[j] != tt.want[j] {
						t.Fatalf("weights = %v, want %v", sol.Weights, tt.want)
					}
				}
			}
			if math.Abs(sol.Objective-tt.wantObj) > 1e-12 {
				t.Fatalf("objective = %v, want %v", sol.Objective, tt.wantObj)
			}
			sum := 0
			for _, w := range sol.Weights {
				sum += w
			}
			if sum != tt.p.Total {
				t.Fatalf("weights sum to %d, want %d", sum, tt.p.Total)
			}
		})
	}
}

func TestSolveErrors(t *testing.T) {
	base := Problem{Funcs: []Func{tableFunc{0, 1}, tableFunc{0, 1}}, Total: 2}
	tests := []struct {
		name   string
		mutate func(Problem) Problem
	}{
		{"no functions", func(p Problem) Problem { p.Funcs = nil; return p }},
		{"negative total", func(p Problem) Problem { p.Total = -1; return p }},
		{"min exceeds total", func(p Problem) Problem { p.Min = []int{2, 2}; return p }},
		{"max below total", func(p Problem) Problem { p.Max = []int{0, 1}; return p }},
		{"min above max", func(p Problem) Problem { p.Min = []int{2, 0}; p.Max = []int{1, 2}; return p }},
		{"wrong min length", func(p Problem) Problem { p.Min = []int{1}; return p }},
		{"wrong max length", func(p Problem) Problem { p.Max = []int{1, 1, 1}; return p }},
	}
	solvers := map[string]func(Problem) (Solution, error){"fox": SolveFox, "bisect": SolveBisect, "brute": SolveBrute}
	for _, tt := range tests {
		for sname, solve := range solvers {
			t.Run(tt.name+"/"+sname, func(t *testing.T) {
				if _, err := solve(tt.mutate(base)); err == nil {
					t.Fatal("invalid problem accepted")
				}
			})
		}
	}
	// Bound infeasibility specifically matches ErrInfeasible.
	p := base
	p.Min = []int{2, 2}
	if _, err := SolveFox(p); !errors.Is(err, ErrInfeasible) {
		t.Fatalf("err = %v, want ErrInfeasible", err)
	}
}

func TestFoxMatchesBruteForce(t *testing.T) {
	// Property: on random small monotone instances, Fox's greedy objective
	// equals the exhaustive optimum.
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(3)
		units := 4 + rng.Intn(8)
		p := Problem{Total: units}
		for j := 0; j < n; j++ {
			p.Funcs = append(p.Funcs, randomMonotoneFunc(rng, units))
		}
		if rng.Intn(2) == 0 {
			p.Min = make([]int, n)
			p.Max = make([]int, n)
			for j := 0; j < n; j++ {
				p.Min[j] = rng.Intn(2)
				p.Max[j] = p.Min[j] + 1 + rng.Intn(units)
			}
		}
		fox, errFox := SolveFox(p)
		brute, errBrute := SolveBrute(p)
		if errFox != nil || errBrute != nil {
			// Both must agree the instance is infeasible.
			return (errFox == nil) == (errBrute == nil)
		}
		return math.Abs(fox.Objective-brute.Objective) < 1e-9
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestBisectMatchesFox(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(6)
		units := 10 + rng.Intn(60)
		p := Problem{Total: units}
		for j := 0; j < n; j++ {
			p.Funcs = append(p.Funcs, randomMonotoneFunc(rng, units))
		}
		if rng.Intn(2) == 0 {
			p.Min = make([]int, n)
			p.Max = make([]int, n)
			for j := 0; j < n; j++ {
				p.Min[j] = rng.Intn(3)
				p.Max[j] = p.Min[j] + 1 + rng.Intn(units)
			}
		}
		fox, errFox := SolveFox(p)
		bis, errBis := SolveBisect(p)
		if errFox != nil || errBis != nil {
			return (errFox == nil) == (errBis == nil)
		}
		if math.Abs(fox.Objective-bis.Objective) > 1e-9 {
			return false
		}
		sum := 0
		for _, w := range bis.Weights {
			sum += w
		}
		return sum == p.Total
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestFoxRespectsBoundsProperty(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(8)
		units := 20 + rng.Intn(100)
		p := Problem{Total: units, Min: make([]int, n), Max: make([]int, n)}
		for j := 0; j < n; j++ {
			p.Funcs = append(p.Funcs, randomMonotoneFunc(rng, units))
			p.Min[j] = rng.Intn(3)
			p.Max[j] = p.Min[j] + rng.Intn(units)
		}
		sol, err := SolveFox(p)
		if err != nil {
			return true // infeasible bounds are allowed to error
		}
		sum := 0
		for j, w := range sol.Weights {
			if w < p.Min[j] || w > p.Max[j] {
				return false
			}
			sum += w
		}
		return sum == units
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestSolveSingleConnection(t *testing.T) {
	p := Problem{Funcs: []Func{tableFunc{0, 1, 2, 3, 4, 5}}, Total: 5}
	for name, solve := range map[string]func(Problem) (Solution, error){"fox": SolveFox, "bisect": SolveBisect, "brute": SolveBrute} {
		sol, err := solve(p)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if sol.Weights[0] != 5 || sol.Objective != 5 {
			t.Fatalf("%s: weights=%v obj=%v, want [5] 5", name, sol.Weights, sol.Objective)
		}
	}
}

func TestFoxWithRateFuncs(t *testing.T) {
	// End-to-end: rate functions learned from observations feed the solver.
	fast := NewRateFunc(100, 1)
	slow := NewRateFunc(100, 1)
	mustObserve(t, fast, 80, 0)
	mustObserve(t, slow, 30, 0)
	mustObserve(t, slow, 40, 30) // slow starts blocking past ~30

	sol, err := SolveFox(Problem{Funcs: []Func{fast, slow}, Total: 100})
	if err != nil {
		t.Fatalf("SolveFox: %v", err)
	}
	if sol.Weights[0] <= 60 || sol.Weights[1] > 40 {
		t.Fatalf("weights = %v, want ~[70 30] favouring the fast connection", sol.Weights)
	}
	if sol.Objective != 0 {
		t.Fatalf("objective = %v, want 0 (capacity suffices)", sol.Objective)
	}
}
