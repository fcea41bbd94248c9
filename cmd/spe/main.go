// Command spe runs the components of one ordered data-parallel region as
// separate OS processes — the paper's deployment model, where "each PE maps
// to an OS process" (Section 2). Subcommands:
//
//	spe merger   -workers N                 # in-order merge, prints ADDR
//	spe worker   -id I -merger ADDR -delay D  # one worker PE, prints ADDR
//	spe splitter -workers A1,A2,... -tuples N  # splitter + balancer
//	spe run      -workers N -tuples N       # spawn everything, wire it up
//
// Passing -transport inproc to run keeps the whole region in one process on
// the shared-memory transport: workers become goroutines and every edge a
// bounded SPSC ring, with the same balancer and blocking signal. Recovery
// (-recover) needs the default tcp transport.
//
// run loads one worker (-slow-worker, -slow-delay) and, with -remove-at F,
// removes that load from tuple F x -tuples on (the paper's Sections 6.3/6.4);
// -no-balance turns balancing off. The splitter prints its sampled blocking
// rates and weights at most every 250 ms and, when balancing, the learned
// blocking-rate functions at the end.
//
// Passing -recover to run (or -control ADDR to splitter plus -resilient to
// worker) enables the fault-tolerant mode: the splitter retains unreleased
// tuples and replays them if a worker dies, reconnects with backoff, and the
// merger dedupes so every tuple is still released exactly once in order.
//
// Passing -keyed to run or splitter streams a deterministic Zipf-skewed
// keyed workload (-skew, -keys, -seed shape it; equal seeds give
// byte-identical streams) routed by -router: hash grouping, PKG two-choice,
// or d-choices. -combine makes workers fold same-key results per batch
// before the ordered merge; the merger's DONE line reports the absorbed
// releases in its combined count.
//
// merger and worker print "ADDR host:port" on stdout once listening, so a
// launcher (spe run, a script, or an operator) can wire the pipeline. All
// tuple traffic flows over real TCP with the blocking-time instrumentation
// of internal/transport.
//
// Passing -metrics-addr to splitter, merger, or run serves the component's
// Prometheus /metrics and JSON /trace endpoints on that address and prints
// "METRICS host:port" once listening (use :0 for an ephemeral port).
//
// Straggler defense: -io-timeout and -send-stall bound every control-plane
// and data-plane I/O (dials, handshakes, probes, control frames, parked
// sends); -stall-window arms the splitter's merge-stall check, which
// quarantines the worker carrying the head-of-line tuple when the merger's
// watermark stops moving (a worker that accepts tuples but stops delivering
// results); and -max-readmits caps how many times a quarantined worker may
// rejoin before the circuit breaker retires it. All four are accepted by run
// and forwarded to the right components.
package main

import (
	"bufio"
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"slices"
	"strings"
	"syscall"
	"time"

	"streambalance/internal/core"
	"streambalance/internal/metrics"
	"streambalance/internal/runtime"
	"streambalance/internal/schedule"
	"streambalance/internal/sim"
	"streambalance/internal/transport"
)

// keyedRouter builds the splitter-side routing policy for keyed streams.
func keyedRouter(name string, n int) (schedule.KeyRouter, error) {
	switch name {
	case "", "pkg":
		return schedule.NewPKGRouter(n)
	case "hash":
		return schedule.NewHashRouter(n)
	case "dchoices":
		return schedule.NewDChoicesRouter(n, schedule.DefaultDChoices, schedule.DefaultTrackerCap)
	default:
		return nil, fmt.Errorf("unknown -router %q (hash, pkg or dchoices)", name)
	}
}

// keyedSource adapts a deterministic sim.KeyedStream to the splitter's keyed
// source: same seed and shape parameters, byte-identical stream. The payload
// carries a little-endian unit value so -combine worker sums stay auditable.
func keyedSource(tuples uint64, payload, keys int, skew, hotShare float64, churn uint64, seed int64) runtime.KeyedSource {
	ks := sim.NewZipfStream(keys, skew, seed)
	ks.SetHotShare(hotShare)
	ks.SetChurn(churn)
	if payload < 8 {
		payload = 8
	}
	buf := make([]byte, payload)
	buf[0] = 1
	return func(seq uint64) (uint64, []byte, bool) {
		if seq >= tuples {
			return 0, nil, false
		}
		return ks.Key(seq), buf, true
	}
}

// serveMetrics starts the opt-in observability endpoint and returns the
// instrumented RegionMetrics to wire into the component. addr=="" disables
// it. The announced "METRICS host:port" line lets launchers (and tests)
// discover the port when addr ends in :0.
func serveMetrics(w io.Writer, addr string) (*runtime.RegionMetrics, *metrics.Server, error) {
	if addr == "" {
		return nil, nil, nil
	}
	reg := metrics.New()
	tr := metrics.NewTrace(metrics.DefaultTraceCap)
	rm := runtime.NewRegionMetrics(reg, tr)
	srv, err := metrics.Serve(addr, reg, tr)
	if err != nil {
		return nil, nil, fmt.Errorf("metrics: %w", err)
	}
	fmt.Fprintf(w, "METRICS %s\n", srv.Addr())
	return rm, srv, nil
}

// timeoutFlags registers the shared I/O-deadline flags on fs and returns a
// builder assembling a runtime.Timeouts from their parsed values. Zero keeps
// the package defaults; negative disables the corresponding deadline.
func timeoutFlags(fs *flag.FlagSet) func() runtime.Timeouts {
	ioTO := fs.Duration("io-timeout", 0, "deadline for dials, handshakes, health probes and control writes (0 = defaults, negative = disabled)")
	sendStall := fs.Duration("send-stall", 0, "how long a send may stay parked on a full connection before failing (0 = default, negative = disabled)")
	return func() runtime.Timeouts {
		return runtime.Timeouts{
			Dial:         *ioTO,
			Handshake:    *ioTO,
			Probe:        *ioTO,
			ControlWrite: *ioTO,
			SendStall:    *sendStall,
		}
	}
}

// shiftOperator is a DelayOperator whose delay becomes after from sequence
// number at on: the external load the paper's dynamic experiments remove
// mid-run. It switches on the tuple it processes, so a worker process, which
// the splitter's source cannot reach, sheds its load at the same tuple as an
// in-process one.
type shiftOperator struct {
	*runtime.DelayOperator
	at    uint64
	after time.Duration
}

// Process implements runtime.Operator.
func (op *shiftOperator) Process(t transport.Tuple) transport.Tuple {
	if t.Seq >= op.at {
		op.SetDelay(op.after)
	}
	return op.DelayOperator.Process(t)
}

// delayOperator returns a worker's operator: delay per tuple, and after from
// sequence number at on when at > 0.
func delayOperator(delay time.Duration, at uint64, after time.Duration) runtime.Operator {
	op := runtime.NewDelayOperator(delay)
	if at == 0 {
		return op
	}
	return &shiftOperator{DelayOperator: op, at: at, after: after}
}

// newBalancer returns the blocking-rate balancer for n connections, or nil
// when balancing is off (plain round-robin).
func newBalancer(n int, off bool) (*core.Balancer, error) {
	if off {
		return nil, nil
	}
	return core.NewBalancer(core.Config{Connections: n, DecayEnabled: true})
}

// timeline returns an OnSample that prints the sampled blocking rates and the
// weights in force, at most one line per step of run time. It runs on the
// splitter's send loop, so it only formats a line.
func timeline(w io.Writer) func(time.Duration, []float64, []int) {
	const step = 250 * time.Millisecond
	var next time.Duration
	return func(now time.Duration, rates []float64, weights []int) {
		if now < next {
			return
		}
		if next == 0 {
			fmt.Fprintf(w, "%-10s %-24s %s\n", "t", "blocking rates", "weights")
		}
		next = now.Truncate(step) + step
		fmt.Fprintf(w, "%-10v %-24s %v\n", now.Truncate(time.Millisecond), fmt.Sprintf("%.2f", rates), weights)
	}
}

// report prints the splitter's end-of-stream summary: tuples sent and time
// blocked per connection, the router's placements for a keyed stream, and
// with a balancer its weights and learned blocking-rate functions.
func report(w io.Writer, sent []int64, blocking []time.Duration, keyed bool, keyedSent []int64, b *core.Balancer) {
	fmt.Fprintf(w, "DONE sent=%v blocking=%v\n", sent, blocking)
	if keyed {
		fmt.Fprintf(w, "keyedSent=%v\n", keyedSent)
	}
	if b != nil {
		fmt.Fprintf(w, "weights=%v\n", b.Weights())
		fmt.Fprintf(w, "learned blocking-rate functions:\n%s", core.DumpFunctions(b, 8))
	}
}

// mergeDone is the merger's end-of-stream line.
const mergeDone = "DONE released=%d ordered=%v combined=%d\n"

func main() {
	if len(os.Args) < 2 {
		fmt.Fprintln(os.Stderr, "spe: need a subcommand: merger, worker, splitter, run")
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "merger":
		err = runMerger(os.Stdout, os.Args[2:])
	case "worker":
		err = runWorker(os.Stdout, os.Args[2:])
	case "splitter":
		err = runSplitter(os.Stdout, os.Args[2:])
	case "run":
		err = runAll(os.Stdout, os.Args[2:])
	default:
		err = fmt.Errorf("unknown subcommand %q", os.Args[1])
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "spe:", err)
		os.Exit(1)
	}
}

// runMerger hosts the in-order merger process.
func runMerger(w io.Writer, args []string) error {
	fs := flag.NewFlagSet("spe merger", flag.ContinueOnError)
	workers := fs.Int("workers", 0, "number of worker connections to accept")
	queue := fs.Int("queue", 0, "reorder backlog cap per worker connection, which also sizes its ingest ring (0 = default)")
	metricsAddr := fs.String("metrics-addr", "", "serve /metrics and /trace on this address (empty = off)")
	timeouts := timeoutFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *workers <= 0 {
		return errors.New("merger: -workers must be positive")
	}
	var count uint64
	ordered := true
	var lastSeq uint64
	// Strictly increasing, not strictly contiguous: when workers run per-key
	// combiners, absorbed sequence numbers are released through the watermark
	// without a sink call, so gaps here are legitimate (and accounted in the
	// DONE line's combined count).
	m, err := runtime.NewMerger(*workers, *queue, func(t transport.Tuple, conn int) {
		if count > 0 && t.Seq <= lastSeq {
			ordered = false
		}
		lastSeq = t.Seq
		count++
	})
	if err != nil {
		return err
	}
	m.SetTimeouts(timeouts())
	rm, msrv, err := serveMetrics(w, *metricsAddr)
	if err != nil {
		return err
	}
	if msrv != nil {
		defer msrv.Close()
		m.SetMetrics(rm)
	}
	fmt.Fprintf(w, "ADDR %s\n", m.Addr())
	m.Start()
	if err := m.Wait(); err != nil {
		return err
	}
	fmt.Fprintf(w, mergeDone, count, ordered, m.CombinedReleased())
	return nil
}

// runWorker hosts one worker PE process.
func runWorker(w io.Writer, args []string) error {
	fs := flag.NewFlagSet("spe worker", flag.ContinueOnError)
	id := fs.Int("id", -1, "worker id (must match the splitter's ordering)")
	merger := fs.String("merger", "", "merger address to forward to")
	delay := fs.Duration("delay", 0, "artificial per-tuple delay (emulated load)")
	shiftAt := fs.Uint64("shift-at", 0, "sequence number from which -shift-delay replaces -delay (0 = never)")
	shiftDelay := fs.Duration("shift-delay", 0, "per-tuple delay from -shift-at on")
	spin := fs.Int64("spin", 0, "integer multiplies per tuple (CPU load)")
	service := fs.Duration("service", 0, "per-tuple wall-clock service time, debt-batched so it stays accurate below kernel sleep granularity")
	combine := fs.Bool("combine", false, "fold same-key results per batch with the per-key sum combiner before forwarding")
	resilient := fs.Bool("resilient", false, "serve reconnecting splitters until killed (recovery mode)")
	timeouts := timeoutFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *id < 0 || *merger == "" {
		return errors.New("worker: need -id and -merger")
	}
	var op runtime.Operator
	switch {
	case *delay > 0 || *shiftAt > 0:
		op = delayOperator(*delay, *shiftAt, *shiftDelay)
	case *spin > 0:
		op = runtime.NewSpinOperator(*spin)
	case *service > 0:
		op = runtime.NewServiceOperator(*service)
	default:
		op = runtime.Identity()
	}
	worker, err := runtime.NewWorker(*id, op, *merger)
	if err != nil {
		return err
	}
	if *combine {
		worker.SetCombiner(runtime.SumCombiner())
	}
	if *resilient {
		worker.SetResilient(true)
	}
	worker.SetTimeouts(timeouts())
	fmt.Fprintf(w, "ADDR %s\n", worker.Addr())
	worker.Start()
	if err := worker.Wait(); err != nil {
		return err
	}
	fmt.Fprintln(w, "DONE")
	return nil
}

// runSplitter hosts the splitter (and controller) process.
func runSplitter(w io.Writer, args []string) error {
	fs := flag.NewFlagSet("spe splitter", flag.ContinueOnError)
	workers := fs.String("workers", "", "comma-separated worker addresses, in id order")
	tuples := fs.Uint64("tuples", 100_000, "tuples to stream")
	payload := fs.Int("payload", 256, "payload bytes per tuple")
	interval := fs.Duration("interval", 100*time.Millisecond, "controller sampling interval")
	noBalance := fs.Bool("no-balance", false, "disable balancing")
	sockbuf := fs.Int("sockbuf", 8<<10, "socket buffer bytes per connection")
	batch := fs.Int("batch", 1, "run length: consecutive tuples to one weighted round-robin pick, written at once unless the connection is congested (1 = one pick per tuple)")
	keyed := fs.Bool("keyed", false, "stream deterministic keyed tuples (Zipf skew) instead of the unkeyed constant source")
	skew := fs.Float64("skew", 1.1, "Zipf exponent of the keyed stream (0 = uniform; needs -keyed)")
	keys := fs.Int("keys", 10_000, "key universe size (needs -keyed)")
	hotShare := fs.Float64("hot-share", 0, "extra probability mass on the hottest key (needs -keyed)")
	churn := fs.Uint64("churn", 0, "rotate the key universe every this many tuples (0 = off; needs -keyed)")
	router := fs.String("router", "pkg", "keyed routing policy: hash, pkg or dchoices (needs -keyed)")
	seed := fs.Int64("seed", 1, "key-generator seed; equal seeds give byte-identical streams (needs -keyed)")
	control := fs.String("control", "", "merger address for the recovery control channel (enables replay on worker failure)")
	retain := fs.Int("retain", 0, "replay buffer capacity in tuples (0 = default; needs -control)")
	noRedial := fs.Bool("no-redial", false, "do not reconnect to failed workers (needs -control)")
	maxReadmits := fs.Int("max-readmits", 0, "quarantines one worker may survive before permanent eviction (0 = default, negative = unlimited; needs -control)")
	stallWindow := fs.Duration("stall-window", 0, "merge-stall window: quarantine the worker holding the head-of-line tuple when the merger's watermark stops moving this long (0 = off; needs -control)")
	metricsAddr := fs.String("metrics-addr", "", "serve /metrics and /trace on this address (empty = off)")
	timeouts := timeoutFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	addrs := strings.Split(*workers, ",")
	if *workers == "" || len(addrs) == 0 {
		return errors.New("splitter: need -workers")
	}
	balancer, err := newBalancer(len(addrs), *noBalance)
	if err != nil {
		return err
	}
	scfg := runtime.SplitterConfig{
		WorkerAddrs:       addrs,
		Source:            runtime.ConstantSource(make([]byte, *payload), *tuples),
		Balancer:          balancer,
		SampleInterval:    *interval,
		OnSample:          timeline(w),
		SocketBufferBytes: *sockbuf,
		BatchSize:         *batch,
		OnConnEvent: func(ev runtime.ConnEvent) {
			switch ev.Kind {
			case "down":
				fmt.Fprintf(w, "EVENT worker %d down: %v\n", ev.Conn, ev.Err)
			case "replay":
				fmt.Fprintf(w, "EVENT worker %d replayed %d tuples\n", ev.Conn, ev.Tuples)
			case "rejoin":
				fmt.Fprintf(w, "EVENT worker %d rejoined\n", ev.Conn)
			case "quarantine":
				fmt.Fprintf(w, "EVENT worker %d quarantined: the merge stalled behind it\n", ev.Conn)
			case "evicted":
				fmt.Fprintf(w, "EVENT worker %d evicted permanently (quarantine limit)\n", ev.Conn)
			case "redial-exhausted":
				fmt.Fprintf(w, "EVENT worker %d redial budget exhausted: %v\n", ev.Conn, ev.Err)
			}
		},
		Timeouts: timeouts(),
	}
	if *keyed {
		scfg.Source = nil
		scfg.KeyedSource = keyedSource(*tuples, *payload, *keys, *skew, *hotShare, *churn, *seed)
		r, err := keyedRouter(*router, len(addrs))
		if err != nil {
			return err
		}
		scfg.Router = r
	}
	if *control != "" {
		scfg.ControlAddr = *control
		scfg.RetainCap = *retain
		scfg.MaxReadmits = *maxReadmits
		scfg.StallWindow = *stallWindow
		if !*noRedial {
			policy := runtime.DefaultRegionRedial
			scfg.Redial = &policy
		}
	}
	rm, msrv, err := serveMetrics(w, *metricsAddr)
	if err != nil {
		return err
	}
	if msrv != nil {
		defer msrv.Close()
		scfg.Metrics = rm
	}
	sp, err := runtime.NewSplitter(scfg)
	if err != nil {
		return err
	}
	sp.Start()
	if err := sp.Wait(); err != nil {
		return err
	}
	sent, blocking := sp.ConnStats()
	report(w, sent, blocking, *keyed, sp.KeyedStats(), balancer)
	return nil
}

// runAll runs one region with the load and balancing its flags choose. On
// the tcp transport it spawns the merger and workers as child processes of
// this binary and runs the splitter in this process; on inproc the whole
// region runs in this process and nothing is spawned.
func runAll(w io.Writer, args []string) error {
	fs := flag.NewFlagSet("spe run", flag.ContinueOnError)
	workers := fs.Int("workers", 3, "number of worker processes")
	tuples := fs.Uint64("tuples", 50_000, "tuples to stream")
	slowWorker := fs.Int("slow-worker", 0, "worker carrying extra load (-1 for none)")
	slowDelay := fs.Duration("slow-delay", time.Millisecond, "per-tuple delay of the loaded worker")
	baseDelay := fs.Duration("base-delay", 50*time.Microsecond, "per-tuple delay of unloaded workers")
	removeAt := fs.Float64("remove-at", 1, "fraction of the stream from which the loaded worker runs at -base-delay (>= 1 keeps its load)")
	noBalance := fs.Bool("no-balance", false, "disable balancing (plain round-robin)")
	recover := fs.Bool("recover", false, "enable worker-failure recovery (resilient workers + control channel)")
	transportKind := fs.String("transport", "tcp", "region transport: tcp (one OS process per PE over loopback) or inproc (one process, shared-memory rings)")
	batch := fs.Int("batch", 1, "run length: consecutive tuples to one weighted round-robin pick, written at once unless the connection is congested (1 = one pick per tuple)")
	fs.Duration("stall-window", 0, "splitter's merge-stall window (0 = off; needs -recover)")
	fs.Int("max-readmits", 0, "quarantines one worker may survive before permanent eviction (0 = default, negative = unlimited)")
	keyed := fs.Bool("keyed", false, "stream deterministic keyed tuples (Zipf skew) instead of the unkeyed constant source")
	skew := fs.Float64("skew", 1.1, "Zipf exponent of the keyed stream (0 = uniform; needs -keyed)")
	keys := fs.Int("keys", 10_000, "key universe size (needs -keyed)")
	router := fs.String("router", "pkg", "keyed routing policy: hash, pkg or dchoices (needs -keyed)")
	combine := fs.Bool("combine", false, "workers fold same-key results per batch before the merge (needs -keyed)")
	seed := fs.Int64("seed", 1, "key-generator seed; equal seeds give byte-identical streams (needs -keyed)")
	fs.Duration("io-timeout", 0, "deadline for dials, handshakes, probes and control writes in every component (0 = defaults)")
	sendStall := fs.Duration("send-stall", 0, "parked-send bound in splitter and workers (0 = default)")
	metricsAddr := fs.String("metrics-addr", "", "serve the splitter's /metrics and /trace on this address (empty = off)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *workers < 1 {
		return errors.New("run: need at least one worker")
	}
	if *slowWorker < -1 || *slowWorker >= *workers {
		return fmt.Errorf("run: -slow-worker %d out of range with %d workers (-1 for none)", *slowWorker, *workers)
	}
	if *removeAt < 0 {
		return errors.New("run: -remove-at must not be negative")
	}
	// load is worker i's per-tuple delay and the sequence number from which
	// it runs at -base-delay instead (0 = never).
	load := func(i int) (time.Duration, uint64) {
		if i != *slowWorker {
			return *baseDelay, 0
		}
		if *removeAt >= 1 {
			return *slowDelay, 0
		}
		at := uint64(*removeAt * float64(*tuples))
		if at == 0 {
			return *baseDelay, 0
		}
		return *slowDelay, at
	}
	describe := func(delay time.Duration, at uint64) string {
		if at == 0 {
			return fmt.Sprintf("delay %v", delay)
		}
		return fmt.Sprintf("delay %v, %v from tuple %d", delay, *baseDelay, at)
	}

	switch *transportKind {
	case "", "tcp":
	case "inproc":
		if *recover {
			return errors.New("run: -recover needs the tcp transport (recovery is a remote-process protocol)")
		}
		// The shared-memory transport: workers are goroutines, every edge a
		// bounded SPSC ring, and a ring-full wait elects to block exactly like
		// a full socket buffer does.
		ops := make([]runtime.Operator, *workers)
		for i := range ops {
			delay, at := load(i)
			ops[i] = delayOperator(delay, at, *baseDelay)
			fmt.Fprintf(w, "worker %d in-process (%s)\n", i, describe(delay, at))
		}
		balancer, err := newBalancer(*workers, *noBalance)
		if err != nil {
			return err
		}
		rcfg := runtime.RegionConfig{
			Transport:      runtime.TransportInproc,
			Operators:      ops,
			Balancer:       balancer,
			SampleInterval: 100 * time.Millisecond,
			OnSample:       timeline(w),
			BatchSize:      *batch,
			Timeouts:       runtime.Timeouts{SendStall: *sendStall},
		}
		if *keyed {
			rcfg.KeyedSource = keyedSource(*tuples, 256, *keys, *skew, 0, 0, *seed)
			if rcfg.Router, err = keyedRouter(*router, *workers); err != nil {
				return err
			}
			if *combine {
				rcfg.Combiner = runtime.SumCombiner()
			}
		} else {
			rcfg.Source = runtime.ConstantSource(make([]byte, 256), *tuples)
		}
		rm, msrv, err := serveMetrics(w, *metricsAddr)
		if err != nil {
			return err
		}
		if msrv != nil {
			defer msrv.Close()
			rcfg.Metrics = rm
		}
		region, err := runtime.NewRegion(rcfg)
		if err != nil {
			return err
		}
		res, err := region.Run()
		if err != nil {
			return err
		}
		report(w, res.PerConnSent, res.TotalBlocking, *keyed, res.KeyedSent, balancer)
		fmt.Fprintf(w, mergeDone, res.Released, res.OrderPreserved, res.CombinedReleased)
		fmt.Fprintln(w, "all processes exited cleanly")
		return nil
	default:
		return fmt.Errorf("run: unknown -transport %q (tcp or inproc)", *transportKind)
	}
	self, err := os.Executable()
	if err != nil {
		return fmt.Errorf("run: locate own binary: %w", err)
	}
	// SIGINT, SIGTERM, SIGHUP or a closed stdout stops the run: every child
	// is killed (exec.CommandContext), the splitter fails on its dead peers,
	// and the run returns an error through the kill-and-reap below. With
	// SIGPIPE notified, a write to a closed stdout fails with EPIPE instead
	// of killing the process (os/signal), and stopWriter turns it into a stop.
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM, syscall.SIGHUP)
	defer stop()
	signal.Notify(make(chan os.Signal, 1), syscall.SIGPIPE)
	defer signal.Reset(syscall.SIGPIPE)
	w = stopWriter{w, stop}
	// Whatever ends this run, an error included, leaves no child running.
	var children []*proc
	defer func() {
		for _, c := range children {
			if c.cmd.ProcessState == nil {
				c.cmd.Process.Kill()
				c.wait()
			}
		}
	}()

	// Each child gets the run flags set on the command line that it shares.
	forward := func(names ...string) []string {
		var args []string
		fs.Visit(func(f *flag.Flag) {
			if slices.Contains(names, f.Name) {
				args = append(args, "-"+f.Name+"="+f.Value.String())
			}
		})
		return args
	}

	// Merger first: workers dial it.
	margs := append([]string{"-workers", fmt.Sprint(*workers)}, forward("io-timeout")...)
	merger, mergerAddr, err := spawn(ctx, self, "merger", margs...)
	if err != nil {
		return fmt.Errorf("run: merger: %w", err)
	}
	children = append(children, merger)
	fmt.Fprintf(w, "merger listening on %s\n", mergerAddr)

	addrs := make([]string, *workers)
	for i := range addrs {
		delay, at := load(i)
		wargs := append([]string{"-id", fmt.Sprint(i), "-merger", mergerAddr, "-delay", delay.String()},
			forward("io-timeout", "send-stall")...)
		if at > 0 {
			wargs = append(wargs, "-shift-at", fmt.Sprint(at), "-shift-delay", baseDelay.String())
		}
		if *recover {
			wargs = append(wargs, "-resilient")
		}
		if *keyed && *combine {
			wargs = append(wargs, "-combine")
		}
		worker, addr, err := spawn(ctx, self, "worker", wargs...)
		if err != nil {
			return fmt.Errorf("run: worker %d: %w", i, err)
		}
		children = append(children, worker)
		addrs[i] = addr
		fmt.Fprintf(w, "worker %d listening on %s (%s)\n", i, addr, describe(delay, at))
	}

	sargs := append([]string{"-workers", strings.Join(addrs, ","), "-tuples", fmt.Sprint(*tuples)},
		forward("batch", "no-balance", "keyed", "skew", "keys", "router", "seed",
			"io-timeout", "send-stall", "metrics-addr")...)
	if *recover {
		sargs = append(sargs, "-control", mergerAddr)
		sargs = append(sargs, forward("max-readmits", "stall-window")...)
	}
	err = runSplitter(w, sargs)
	if ctx.Err() != nil {
		return errors.New("run: stopped by a signal or a closed stdout")
	}
	if err != nil {
		return fmt.Errorf("run: splitter: %w", err)
	}
	for i, c := range children[1:] {
		if *recover {
			// Resilient workers serve until killed.
			c.cmd.Process.Kill()
			c.wait()
			continue
		}
		if err := c.wait(); err != nil {
			return fmt.Errorf("run: wait worker %d: %w", i, err)
		}
	}
	if err := merger.wait(); err != nil {
		return fmt.Errorf("run: wait merger: %w", err)
	}
	for _, line := range merger.out {
		fmt.Fprintln(w, line)
	}
	fmt.Fprintln(w, "all processes exited cleanly")
	return nil
}

// stopWriter is run's stdout: a failed write (the reader is gone, as in
// `spe run | head -1`) stops the run as a signal does.
type stopWriter struct {
	io.Writer
	stop context.CancelFunc
}

func (sw stopWriter) Write(p []byte) (int, error) {
	n, err := sw.Writer.Write(p)
	if err != nil {
		sw.stop()
	}
	return n, err
}

// proc is a spawned subcommand and the stdout lines it printed after its
// ADDR announcement.
type proc struct {
	cmd     *exec.Cmd
	out     []string
	drained chan struct{}
}

// spawn starts a child subcommand, killed when ctx is done or when this
// process dies, SIGKILL included, and reads its ADDR announcement. The
// child's later stdout is collected in the background, so it never blocks
// writing its DONE line.
func spawn(ctx context.Context, self, sub string, args ...string) (*proc, string, error) {
	cmd := exec.CommandContext(ctx, self, append([]string{sub}, args...)...)
	cmd.Stderr = os.Stderr
	// Linux sends the parent-death signal when the forking thread exits. Go
	// ends a thread only when a goroutine exits locked to it, which nothing
	// here does, so that is this process's death.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, "", err
	}
	if err := cmd.Start(); err != nil {
		return nil, "", err
	}
	scanner := bufio.NewScanner(stdout)
	for scanner.Scan() {
		if addr, ok := strings.CutPrefix(scanner.Text(), "ADDR "); ok {
			p := &proc{cmd: cmd, drained: make(chan struct{})}
			go func() {
				defer close(p.drained)
				for scanner.Scan() {
					p.out = append(p.out, scanner.Text())
				}
			}()
			return p, addr, nil
		}
	}
	if err := cmd.Wait(); err != nil {
		return nil, "", fmt.Errorf("child exited before announcing address: %w", err)
	}
	return nil, "", errors.New("child exited before announcing address")
}

// wait reaps the child after its stdout is drained. The drain ends at EOF,
// when the child has exited; cmd.Wait closes the pipe, so a Wait that won the
// race against the last read would drop the final lines (the merger's DONE
// report).
func (p *proc) wait() error {
	<-p.drained
	return p.cmd.Wait()
}
