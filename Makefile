# Convenience targets; everything is plain `go` underneath.

.PHONY: test test-race vet fmt-check loc trials overhead hops latency adapt bench figures figures-csv examples quick-bench soak

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

# Non-test Go lines (wc -l) outside bench/, in total and for the data path
# (runtime + transport + spsc), the splitter's two files and the merger's,
# the wall-clock calls in non-test runtime + transport code (call expressions
# of time.Now/Since/Sleep/After/NewTimer/NewTicker/AfterFunc; a function
# value such as `now: time.Now` is not counted) and the time.Sleep calls in
# their tests, the flags each spe subcommand defines (counted from its -h
# output) and the exported fields of the runtime's configuration structs
# (from go doc): the numbers the ROADMAP exits are written in.
loc:
	@echo "non-test Go outside bench/: $$(find . -name '*.go' ! -name '*_test.go' ! -path './bench/*' ! -path './.git/*' -print0 | xargs -0 cat | wc -l)"
	@echo "runtime+transport+spsc:     $$(find internal/runtime internal/transport internal/spsc -name '*.go' ! -name '*_test.go' -print0 | xargs -0 cat | wc -l)"
	@echo "runtime/splitter.go:        $$(wc -l < internal/runtime/splitter.go)"
	@echo "runtime/splitter_recovery.go: $$(wc -l < internal/runtime/splitter_recovery.go)"
	@echo "runtime/splitter_credit.go: $$(wc -l < internal/runtime/splitter_credit.go)"
	@echo "runtime/merger.go:          $$(wc -l < internal/runtime/merger.go)"
	@echo "runtime+transport wall-clock calls: $$(find internal/runtime internal/transport -name '*.go' ! -name '*_test.go' -print0 | xargs -0 grep -ohE 'time\.(Now|Since|Sleep|After|NewTimer|NewTicker|AfterFunc)\(' | wc -l)"
	@echo "runtime+transport test time.Sleep calls: $$(find internal/runtime internal/transport -name '*_test.go' -print0 | xargs -0 grep -ohE 'time\.Sleep\(' | wc -l)"
	@for sub in run worker merger splitter; do echo "spe $$sub flags: $$(go run ./cmd/spe $$sub -h 2>&1 | grep -c '^  -')"; done
	@for t in RegionConfig SplitterConfig RecoveryConfig Timeouts; do echo "runtime.$$t fields: $$(go doc ./internal/runtime $$t | awk '/struct \{/{f=1;next} /^}/{f=0} f && /^\t[A-Z][A-Za-z0-9]* /' | wc -l)"; done

# The fault trials' flake count (ROADMAP item 4): build the runtime test
# binary once with -race, run TestFaultPlans/trials N times
# (`make trials N=100`), print each failing run's seeds and "k of N runs
# failed"; exits non-zero when k > 0.
N ?= 10
trials:
	@dir=$$(mktemp -d) && trap 'rm -rf "$$dir"' EXIT && \
	go test -race -c -o "$$dir/runtime.test" ./internal/runtime && \
	fails=0 && \
	for i in $$(seq 1 $(N)); do \
		if ! (cd internal/runtime && "$$dir/runtime.test" -test.run '^TestFaultPlans$$/^trials$$' >"$$dir/out" 2>&1); then \
			fails=$$((fails + 1)); \
			echo "run $$i failed: $$(grep -o 'seed [0-9]*' "$$dir/out" | sort -u | paste -sd, -)"; \
		fi; \
	done && \
	echo "$$fails of $(N) runs failed" && test $$fails -eq 0

# The observability budget (ROADMAP 5(c)) from one place: what one traced
# tcp_sat run reads for the registry's end-to-end overhead and a counter
# increment, and what the merger's drain and release path costs per tuple in
# both BenchmarkReleaseRuns shapes (shape=tuples: per-tuple round-robin, as
# keyed traffic arrives; shape=runs: runs of 32, as the splitter routes),
# each uninstrumented and instrumented (metrics=on minus metrics=off).
# Single traced run: treat the first row as ±10 points on this host.
overhead:
	bash bench/run.sh -workload tcp_sat -trace 1 | grep -E '^ +metrics\.(registry_overhead_pct|counter_inc_ns) '
	go test -run '^$$' -bench ReleaseRuns -count=6 ./internal/runtime | grep '^Benchmark'

# What a hand-off costs, from one place: the four per-layer rows one traced
# inproc_sat run reads for the in-proc edge, the merger's ingest lanes, the
# splitter and a two-stage chain (single traced run: treat as ±10 %), then
# the ring primitive per item and per span, the raw edge on its fast
# (ring=1024) and parking (ring=2) paths, the splitter's send loop per
# tuple and per flush at 2, 4 and 64 connections (no bench workload has 64),
# the splitter over two loopback TCP edges per tuple and per write at runs of
# 1 and 32, congested (held runs) and not, and the TCP worker loop per tuple
# and per forward on reads of 32 and 512 frames.
hops:
	bash bench/run.sh -workload inproc_sat -trace 1 | grep -E '^ +(transport\.inproc_pipe_ns_per_tuple|runtime\.merger_ingest_ns_per_tuple|runtime\.splitter_ns_per_tuple|dataflow\.chain2_ns_per_tuple) '
	go test -run '^$$' -bench RingHandoff -count=6 ./internal/spsc | grep '^Benchmark'
	go test -run '^$$' -bench InprocPipe -count=6 ./internal/transport | grep '^Benchmark'
	go test -run '^$$' -bench SplitterRuns -count=6 ./internal/runtime | grep '^Benchmark'
	go test -run '^$$' -bench SplitterWrites -count=6 ./internal/runtime | grep '^Benchmark'
	go test -run '^$$' -bench WorkerPass -count=6 ./internal/runtime | grep '^Benchmark'

# What the in-flight bound (DESIGN §4b) buys, from one place: the release
# latency, adaptation and balancer accuracy of one traced hetero_shift run
# (the workload whose workers, not the data plane, set the rate), and the
# release latency of one traced paced_tcp run, which the bound must leave
# alone. Single traced runs: treat each row as ±10 %.
latency:
	bash bench/run.sh -workload hetero_shift -trace 1 | grep -E '^ +(runtime\.region_lat_p(50|99)_us|core\.adapt_s|core\.weight_l1_error|runtime\.worker_op_busy_share) '
	bash bench/run.sh -workload paced_tcp -trace 1 | grep -E '^ +runtime\.region_lat_p50_us '

# How fast the balancer re-converges after hetero_shift's service shift
# (DESIGN §4b, change points), from N traced runs (`make adapt N=5`, about a
# minute each): the median and quartiles of the adaptation time, the weight
# error against the oracle split and the region's median rate.
adapt:
	@dir=$$(mktemp -d) && trap 'rm -rf "$$dir"' EXIT && \
	for i in $$(seq 1 $(N)); do \
		bash bench/run.sh -workload hetero_shift -trace 1 -tracedir "$$dir" >"$$dir/run$$i" || exit 1; \
	done && \
	for m in core.adapt_s core.weight_l1_error runtime.region_tuples_per_s_median; do \
		awk -v m=$$m '$$1 == m { print $$2 }' "$$dir"/run* | sort -g | awk -v m=$$m ' \
			function q(p,  h, i) { h = 1 + p * (NR - 1); i = int(h); return v[i] + (h - i) * (v[i + 1] - v[i]) } \
			{ v[NR] = $$1 } \
			END { printf "%-36s median %10.4f   q1 %10.4f   q3 %10.4f   (%d runs)\n", m, q(0.5), q(0.25), q(0.75), NR }'; \
	done

# Minutes-long randomized chaos soak: the long rows of TestFaultPlans,
# stall/drip/kill faults against recovery-enabled regions at 16, 32 and 64
# workers, asserting exactly-once ordered release and a bounded release gap.
# Each plan logs its summary line (-v).
soak:
	SOAK_FULL=1 go test -v -timeout 30m -run '^TestFaultPlans$$/^long$$' ./internal/runtime

# One benchmark iteration per figure: a fast smoke of every reproduction.
quick-bench:
	go test -bench=. -benchmem -benchtime=1x -run '^$$' .

# Full benchmark sweep as a smoke of every `go test` benchmark. The numbers
# are single samples: the instrument that tells a regression from noise is
# the repo benchmark (BENCHMARK.json, `bash bench/run.sh`).
bench:
	go test -bench=. -benchmem -run '^$$' ./...

figures:
	go run ./cmd/sbench -fig all

figures-csv:
	go run ./cmd/sbench -fig all -csv figures/

examples:
	go run ./examples/quickstart
	go run ./examples/heterogeneous
	go run ./examples/dataflowapp
	go run ./examples/keyedskew
