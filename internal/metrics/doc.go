// Package metrics is a lightweight, dependency-free metrics registry for
// the streaming runtime: counters, gauges and histograms with atomic hot
// paths, a Prometheus text-format encoder, a structured event-trace ring
// buffer, and an opt-in HTTP server exposing /metrics and /trace.
//
// The paper's whole contribution rests on one low-level signal — the
// per-connection blocking rate of Section 3 — so making that signal (and
// every decision derived from it) continuously observable is not optional
// dressing: Beard & Chamberlain's work on online service-rate approximation
// argues such estimates are only trustworthy when they can be watched and
// validated while the system runs. This package is the measurement
// substrate the rest of the repo instruments itself with.
//
// Design constraints:
//
//   - No external dependencies: the exposition format is hand-encoded
//     Prometheus text (version 0.0.4), parseable by any Prometheus scraper.
//   - Allocation-conscious hot paths: incrementing a Counter or setting a
//     Gauge is a single atomic operation on a pre-resolved handle; label
//     lookup (CounterVec.With) is done once at wiring time, not per tuple.
//   - Float64 values stored as bits in a uint64, so counters can carry
//     seconds as naturally as tuple counts.
//   - One copy of every count: a fact the instrumented code already keeps
//     for its own work (a watermark, a queue depth, a sender's totals) is
//     bound with Counter.SetFunc / Gauge.SetFunc and read at scrape time —
//     free on the data path, exact at every scrape; Inc, Add, Set and Observe
//     are for facts that exist only to be observed. Every reader goes through
//     one series.value(), so the two kinds look the same from outside.
//
// Registration is idempotent: asking for an already-registered family with
// the same kind and label names returns the existing one, so independent
// components can share a Registry without coordination. Mismatched
// re-registration panics — it is a programming error, not a runtime
// condition.
package metrics
