// Command bench is the repository's benchmark: four workloads against
// runtime.NewRegion, two gated end-to-end metrics measured with tracing off, and
// a per-layer cost ladder from a separate traced run. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"time"
)

// metric is one reported number. The JSON shape is the benchmark contract's.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted uint64            `json:"attempted"`
	Failed    uint64            `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runSeconds is the run length the benchmark is sized for; BENCHMARK.json
// names the same number.
const runSeconds = 30

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    int
	out      string
	audit    int
	traceDir string
	// corruptSink is never set from the command line; see segOpts.
	corruptSink bool
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "run one workload: tcp_sat, inproc_sat, paced_tcp or hetero_shift (default: all four)")
	flag.Int64Var(&o.seed, "seed", 1, "seed for every generated input")
	flag.Float64Var(&o.seconds, "seconds", runSeconds, "measuring time per workload")
	flag.IntVar(&o.trace, "trace", 0, "1 runs the traced run and prints the per-layer metrics instead of the end-to-end ones")
	flag.StringVar(&o.out, "out", "", "also write the full record (host, per-segment values, metrics) to this file as JSON")
	flag.StringVar(&o.traceDir, "tracedir", "bench/out", "where the traced run writes trace-<workload>.json")
	flag.IntVar(&o.audit, "audit", 0, "run two alternating sets of N full runs and print the noise table (see NOISE.md)")
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "bench: unexpected argument %q\n", flag.Arg(0))
		os.Exit(2)
	}
	os.Exit(run(o, os.Stdout, os.Stderr))
}

// run is main without the process exit, so tests can drive it.
func run(o options, stdout, stderr io.Writer) int {
	todo := workloads
	if o.workload != "" {
		w, ok := findWorkload(o.workload)
		if !ok {
			fmt.Fprintf(stderr, "bench: unknown workload %q\n", o.workload)
			return 2
		}
		todo = []workload{w}
	}
	if o.audit > 0 {
		if err := audit(o, todo, stdout, stderr); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		return 0
	}
	// A region that wedges must not hang the caller: the contract allows
	// 180 s per run, and nothing here is planned to take half of that.
	watchdog := time.AfterFunc(170*time.Second*time.Duration(len(todo)), func() {
		fmt.Fprintln(os.Stderr, "bench: run exceeded its time limit")
		os.Exit(3)
	})
	defer watchdog.Stop()

	var records []*record
	for _, w := range todo {
		rec, err := runWorkload(w, o)
		if err != nil {
			// No result line: a run with a failed tuple has no metrics worth
			// comparing. The counts are still printed.
			fmt.Fprintf(stdout, "== %s: attempted=%d failed=%d\n", w.name, rec.Result.Attempted, rec.Result.Failed)
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		records = append(records, rec)
	}
	if o.out != "" {
		if err := writeJSONFile(o.out, records); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
	}
	// Tables first, then one result line per workload, so that the last line
	// of standard output is always a result object.
	for _, rec := range records {
		rec.printTable(stdout)
	}
	enc := json.NewEncoder(stdout)
	for _, rec := range records {
		if err := enc.Encode(rec.Result); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
	}
	return 0
}

func writeJSONFile(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
