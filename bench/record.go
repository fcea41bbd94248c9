package main

import (
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

// host says what the numbers were measured on, so that a reader can tell a
// slow host from a slow commit. None of it enters a metric; the one host
// reading that does is hostRef's, see hostref.go.
type host struct {
	NumCPU      int     `json:"nproc"`
	GoMaxProcs  int     `json:"gomaxprocs"`
	GoVersion   string  `json:"go_version"`
	Kernel      string  `json:"kernel"`
	SpinBefore  float64 `json:"calib_spin_ms_before"`
	SpinAfter   float64 `json:"calib_spin_ms_after"`
	RunSeconds  float64 `json:"run_seconds"`
	Seed        int64   `json:"seed"`
	WallSeconds float64 `json:"wall_seconds"`
}

// record is everything one workload's run produced.
type record struct {
	Workload string    `json:"workload"`
	Why      string    `json:"why"`
	Traced   bool      `json:"traced"`
	Host     host      `json:"host"`
	EndToEnd *endToEnd `json:"end_to_end,omitempty"`
	Result   result    `json:"result"`
}

var spinSink uint64

// calibSpin times a fixed amount of single-threaded integer work, about
// 27 ms on a core of the sizing host.
func calibSpin() float64 {
	start := time.Now()
	x := uint64(88172645463325252)
	for i := 0; i < 12_000_000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	spinSink = x
	return float64(time.Since(start)) / 1e6
}

func kernelRelease() string {
	b, err := os.ReadFile("/proc/sys/kernel/osrelease")
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(b))
}

// runWorkload returns the record even when it returns an error, so that the
// caller can still print how many tuples were attempted and how many failed.
func runWorkload(w workload, o options) (*record, error) {
	start := time.Now()
	rec := &record{Workload: w.name, Why: w.why, Traced: o.trace != 0}
	rec.Host = host{
		NumCPU:     runtime.NumCPU(),
		GoMaxProcs: setProcs(w.procs),
		GoVersion:  runtime.Version(),
		Kernel:     kernelRelease(),
		RunSeconds: o.seconds,
		Seed:       o.seed,
		SpinBefore: calibSpin(),
	}
	so := segOpts{seed: o.seed, corruptSink: o.corruptSink}
	var err error
	if o.trace != 0 {
		err = runTraced(w, o, so, rec)
	} else {
		var e *endToEnd
		e, err = runEndToEnd(w, planFor(w, o.seconds), so)
		rec.EndToEnd = e
		rec.Result = result{
			Attempted: e.Attempted,
			Failed:    e.Failed,
			Metrics: map[string]metric{
				"tuples_per_s": {e.TuplesPerS, "1/s"},
				"setup_s":      {e.SetupS, "s"},
			},
		}
	}
	rec.Result.Correct = err == nil && rec.Result.Failed == 0
	rec.Host.SpinAfter = calibSpin()
	rec.Host.WallSeconds = time.Since(start).Seconds()
	if err != nil {
		return rec, err
	}
	if rec.Traced {
		rec.Result.Metrics["bench.calib_spin_ms"] = metric{(rec.Host.SpinBefore + rec.Host.SpinAfter) / 2, "ms"}
	}
	for name, m := range rec.Result.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return rec, fmt.Errorf("%s: metric %s is not a finite number", w.name, name)
		}
	}
	return rec, nil
}

func (r *record) printTable(w io.Writer) {
	h := r.Host
	mode := "end to end, tracing off"
	if r.Traced {
		mode = "per layer, traced run"
	}
	fmt.Fprintf(w, "== %s (%s) seed=%d run=%.0fs wall=%.1fs\n", r.Workload, mode, h.Seed, h.RunSeconds, h.WallSeconds)
	fmt.Fprintf(w, "   host: nproc=%d GOMAXPROCS=%d %s kernel=%s calib_spin_ms=%.1f/%.1f (before/after)\n",
		h.NumCPU, h.GoMaxProcs, h.GoVersion, h.Kernel, h.SpinBefore, h.SpinAfter)
	fmt.Fprintf(w, "   tuples: attempted=%d failed=%d\n", r.Result.Attempted, r.Result.Failed)
	names := make([]string, 0, len(r.Result.Metrics))
	for name := range r.Result.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := r.Result.Metrics[name]
		fmt.Fprintf(w, "   %-44s %16.4f %s\n", name, m.Value, m.Unit)
	}
	if e := r.EndToEnd; e != nil {
		fmt.Fprintf(w, "   %-44s %16.4f us (reported, not gated)\n", "lat_p50_us", e.LatP50Us)
		if len(e.SegSpeed) > 0 {
			fmt.Fprintf(w, "   %-44s %16.4f 1/s (median segment as timed; host speed %.2f)\n",
				"tuples_per_s, unscaled", median(e.SegTuples), median(e.SegSpeed))
			if h.GoVersion != refCalibratedWith {
				fmt.Fprintf(w, "   note: the host reference was calibrated with %s; under %s measure the baseline again before comparing with recorded numbers\n",
					refCalibratedWith, h.GoVersion)
			}
		}
	}
}
