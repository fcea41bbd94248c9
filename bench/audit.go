package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"time"
)

// gated lists the end-to-end metrics with the share by which each may worsen.
// BENCHMARK.json carries the same list; a test keeps the two in step.
var gated = []struct {
	name   string
	unit   string
	higher bool // higher is better
	bound  float64
}{
	{"tuples_per_s", "1/s", true, 0.10},
	{"setup_s", "s", false, 0.10},
}

// audit answers "do two sets of runs of the same code agree?" the way the
// benchmark's acceptance does: 2N full runs, each workload in a process of
// its own with a seed of its own, dealt alternately into sets A and B. For
// every gated (workload, metric) pair it reports each set's median, the
// quartile spread as a share of the median, how much worse B's median is
// than A's, and the widest single-run deviation from its set's median.
func audit(o options, todo []workload, stdout, stderr io.Writer) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	// values[workload][metric][set] = one value per run
	values := map[string]map[string][2][]float64{}
	start := time.Now()
	for i := 0; i < 2*o.audit; i++ {
		for _, w := range todo {
			seed := o.seed + int64(i)
			fmt.Fprintf(stderr, "audit: run %d/%d set %c %s seed %d\n", i+1, 2*o.audit, 'A'+i%2, w.name, seed)
			res, err := runSelf(self, w.name, seed, o.seconds)
			if err != nil {
				return fmt.Errorf("%s seed %d: %w", w.name, seed, err)
			}
			if values[w.name] == nil {
				values[w.name] = map[string][2][]float64{}
			}
			for name, m := range res.Metrics {
				sets := values[w.name][name]
				sets[i%2] = append(sets[i%2], m.Value)
				values[w.name][name] = sets
			}
		}
	}

	fmt.Fprintf(stdout, "# Noise audit\n\n")
	fmt.Fprintf(stdout, "`bench -audit %d -seconds %g -seed %d`: two alternating sets of %d runs per workload, one process and one seed per run, tracing off. ",
		o.audit, o.seconds, o.seed, o.audit)
	fmt.Fprintf(stdout, "Host: nproc=%d, %s, kernel %s; took %.0f s.\n\n", runtime.NumCPU(), runtime.Version(), kernelRelease(), time.Since(start).Seconds())
	fmt.Fprintf(stdout, "- *spread*: distance between the first and third quartile of a set's runs (Python's `statistics.quantiles(v, n=4)`) as a share of their median; it must stay inside the bound, and the target is a third of it.\n")
	fmt.Fprintf(stdout, "- *B vs A*: how much worse set B's median is than set A's (negative: better); it must stay inside half the bound.\n")
	fmt.Fprintf(stdout, "- *widest run*: the largest deviation of any single run from its own set's median, in either direction; it must stay inside the bound.\n\n")
	fmt.Fprintf(stdout, "| workload | metric | bound | median A | median B | spread A | spread B | B vs A | widest run | verdict |\n")
	fmt.Fprintf(stdout, "|---|---|---|---|---|---|---|---|---|---|\n")
	bad := 0
	for _, w := range todo {
		for _, g := range gated {
			sets := values[w.name][g.name]
			a, b := sets[0], sets[1]
			ma, mb := median(a), median(b)
			worse := (mb - ma) / ma
			if g.higher {
				worse = -worse
			}
			widest := 0.0
			for s, set := range [2][]float64{a, b} {
				med := [2]float64{ma, mb}[s]
				for _, v := range set {
					widest = math.Max(widest, math.Abs(v-med)/med)
				}
			}
			sa, sb := iqrShare(a), iqrShare(b)
			// The same rule for every pair, set-up included: the sets must
			// agree within half the bound and no run may stray from its set's
			// median, or spread within its set, by more than the bound.
			verdict := "ok"
			switch {
			case worse > g.bound/2 || widest > g.bound || math.Max(sa, sb) > g.bound:
				verdict = "FAIL"
				bad++
			case math.Max(sa, sb) > g.bound/3:
				verdict = "above target"
			}
			fmt.Fprintf(stdout, "| %s | %s | %.2f | %s | %s | %.1f %% | %.1f %% | %+.1f %% | %.1f %% | %s |\n",
				w.name, g.name, g.bound, sig(ma), sig(mb), 100*sa, 100*sb, 100*worse, 100*widest, verdict)
		}
	}
	fmt.Fprintf(stdout, "\nEvery run, in the order run (A and B alternate):\n\n")
	for _, w := range todo {
		for _, g := range gated {
			sets := values[w.name][g.name]
			fmt.Fprintf(stdout, "- %s %s:", w.name, g.name)
			for i := range sets[0] {
				fmt.Fprintf(stdout, " %s %s", sig(sets[0][i]), sig(sets[1][i]))
			}
			fmt.Fprintln(stdout)
		}
	}
	fmt.Fprintln(stdout)
	if bad > 0 {
		return fmt.Errorf("%d gated pairs fail the audit", bad)
	}
	return nil
}

func sig(v float64) string { return strconv.FormatFloat(v, 'g', 5, 64) }

// runSelf runs one workload in a fresh process and parses the result line.
func runSelf(self, workload string, seed int64, seconds float64) (*result, error) {
	cmd := exec.Command(self, "-workload", workload, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", "0")
	var out, errb bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errb
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("%w: %s", err, bytes.TrimSpace(errb.Bytes()))
	}
	var last []byte
	sc := bufio.NewScanner(&out)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if len(bytes.TrimSpace(sc.Bytes())) > 0 {
			last = append(last[:0], sc.Bytes()...)
		}
	}
	var res result
	if err := json.Unmarshal(last, &res); err != nil {
		return nil, fmt.Errorf("result line: %w", err)
	}
	if !res.Correct || res.Failed > 0 {
		return nil, fmt.Errorf("%d of %d tuples failed", res.Failed, res.Attempted)
	}
	return &res, nil
}
