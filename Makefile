# Convenience targets; everything is plain `go` underneath.

.PHONY: test test-race vet fmt-check overhead hops bench bench-json figures figures-csv examples quick-bench soak soak-smoke sweep-smoke skew-sweep

test:
	go test ./...

# Race-detector pass over the chaos proxy, the schedule and the metrics
# registry (whose readers call into other goroutines' state) — the packages
# CI's race-data-path job (spsc, transport, runtime, dataflow, twice) does
# not already cover.
test-race:
	go test -race ./internal/chaos ./internal/schedule ./internal/metrics

vet:
	go vet ./...

# Fails, listing them, if gofmt would rewrite any file (CI's Format step).
fmt-check:
	@test -z "$$(gofmt -l . | tee /dev/stderr)"

# The observability budget (ROADMAP 4c) from one place: what one traced
# tcp_sat run reads for the registry's end-to-end overhead and a counter
# increment, and what instrumenting the merger costs its release path per
# tuple (metrics=on minus metrics=off). Single traced run: treat the first
# row as ±10 points on this host.
overhead:
	bash bench/run.sh -workload tcp_sat -trace 1 | grep -E '^ +metrics\.(registry_overhead_pct|counter_inc_ns) '
	go test -run '^$$' -bench ReleaseRuns -count=6 ./internal/runtime | grep '^Benchmark'

# What a hand-off costs, from one place: the four per-layer rows one traced
# inproc_sat run reads for the in-proc edge, the merger's ingest lanes, the
# splitter and a two-stage chain (single traced run: treat as ±10 %), then
# the ring primitive per item and per span and the raw edge on its fast
# (ring=1024) and parking (ring=2) paths.
hops:
	bash bench/run.sh -workload inproc_sat -trace 1 | grep -E '^ +(transport\.inproc_pipe_ns_per_tuple|runtime\.merger_ingest_ns_per_tuple|runtime\.splitter_ns_per_tuple|dataflow\.chain2_ns_per_tuple) '
	go test -run '^$$' -bench RingHandoff -count=6 ./internal/spsc | grep '^Benchmark'
	go test -run '^$$' -bench InprocPipe -count=6 ./internal/transport | grep '^Benchmark'

# Minutes-long randomized chaos soak: stall/drip/kill faults against
# recovery-enabled regions at 16-64 workers, asserting the exactly-once
# ordered-release invariant. Summaries land in SOAK_<short-sha>.json.
soak:
	SOAK_FULL=1 SOAK_OUT="SOAK_$$(git rev-parse --short HEAD).json" \
		go test -v -timeout 30m -run 'TestSoak' ./internal/soak \
		&& echo "wrote SOAK_$$(git rev-parse --short HEAD).json"

# The CI-sized soak: one short randomized schedule, same invariants.
soak-smoke:
	go test -v -run TestSoakSmoke ./internal/soak

# Fleet-experiment smoke: drain the heterogeneous sweep-smoke matrix (two sim
# scenarios, two identical bench runs, one chaos soak) through real worker
# processes, archiving every run under results/sweep-smoke/, then prove the
# archive pipeline end to end by comparing the two bench runs under
# benchguard. The near-unbounded tolerance checks pairing and plumbing, not
# performance.
sweep-smoke:
	rm -rf results/sweep-smoke
	go run ./cmd/dispatcher -specs experiments/sweep-smoke.json \
		-results results/sweep-smoke -workers 2
	go run ./cmd/benchguard \
		-baseline results/sweep-smoke/003-bench-inproc-b32-a/result.json \
		-current results/sweep-smoke/004-bench-inproc-b32-b/result.json \
		-bench 'RegionTransport/transport=inproc' -metric tuples/s -max-drop 0.90

# Keyed-skew sweep: the hash/PKG/d-choices × Zipf-α × fan-out matrix from
# experiments/skew-sweep.json dispatched through real worker processes and
# archived under results/skew-sweep/, then gated on the headline claim: at
# α=1.5 with 16 workers, PKG must beat hash grouping by at least 1.5x
# tuples/s. (Full-benchtime runs show ~2x; the single-run sweep gate leaves
# headroom for noisy shared runners.)
skew-sweep:
	rm -rf results/skew-sweep
	go run ./cmd/dispatcher -specs experiments/skew-sweep.json \
		-results results/skew-sweep -workers 2
	@hash=$$(jq '.bench.results[0].metrics["tuples/s"]' results/skew-sweep/*-keyed-hash-a1.5-w16/result.json); \
	pkg=$$(jq '.bench.results[0].metrics["tuples/s"]' results/skew-sweep/*-keyed-pkg-a1.5-w16/result.json); \
	awk -v h="$$hash" -v p="$$pkg" 'BEGIN { \
		if (h <= 0 || p <= 0) { print "degenerate tuples/s: hash=" h " pkg=" p; exit 1 } \
		printf "alpha=1.5 workers=16: hash %.0f tuples/s, pkg %.0f tuples/s (%.2fx)\n", h, p, p/h; \
		exit (p >= 1.5*h ? 0 : 1) }' \
		|| { echo "skew-sweep gate failed: pkg < 1.5x hash at alpha=1.5/workers=16"; exit 1; }

# One benchmark iteration per figure: a fast smoke of every reproduction.
quick-bench:
	go test -bench=. -benchmem -benchtime=1x -run '^$$' .

# Full benchmark sweep as a smoke of every `go test` benchmark. The numbers
# are single samples: the instrument that tells a regression from noise is
# the repo benchmark (BENCHMARK.json, `bash bench/run.sh`).
bench:
	go test -bench=. -benchmem -run '^$$' ./...

# Single-iteration benchmark sweep encoded as JSON (what the CI
# bench-regression job uploads per commit).
bench-json:
	go test -bench=. -benchmem -benchtime=1x -run '^$$' ./... | go run ./cmd/benchjson

figures:
	go run ./cmd/sbench -fig all

figures-csv:
	go run ./cmd/sbench -fig all -csv figures/

examples:
	go run ./examples/quickstart
	go run ./examples/heterogeneous
	go run ./examples/dataflowapp
	go run ./examples/keyedskew
