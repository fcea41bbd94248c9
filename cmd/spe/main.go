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
// blocking-rate functions at the end. Every delay flag (-delay, -shift-delay,
// -slow-delay, -base-delay) is a mean per-tuple service time: a worker sleeps
// off its accumulated service in steps of at least a millisecond, so a 50us
// delay costs 50us a tuple on a host whose shortest sleep lasts 1 ms.
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
// sends); -stall-window sets the splitter's merge-stall check, which
// quarantines the worker carrying the head-of-line tuple when the merger's
// watermark stops moving (a worker that accepts tuples but stops delivering
// results) and is not the last live one: 0 keeps the runtime's 10 s
// default, negative turns the check off; and -max-readmits caps how many
// times a quarantined worker may rejoin before the circuit breaker retires
// it. run and splitter register these flags, and every flag they share,
// through one binder, and a flag that sets a runtime field defaults to that
// field's zero value, so the runtime's default applies. run hands its
// children the timeout flags set on its command line.
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

// payloadBytes is the size of every tuple's payload.
const payloadBytes = 256

// keyedSource adapts a deterministic sim.KeyedStream to the splitter's keyed
// source: same seed and shape parameters, byte-identical stream. The payload
// carries a little-endian unit value so -combine worker sums stay auditable.
func keyedSource(tuples uint64, keys int, skew float64, seed int64) runtime.KeyedSource {
	ks := sim.NewZipfStream(keys, skew, seed)
	buf := make([]byte, payloadBytes)
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

// timeoutFlags registers the I/O-deadline flags on fs, bound to to. Zero
// keeps the runtime defaults; negative disables the deadline.
func timeoutFlags(fs *flag.FlagSet, to *runtime.Timeouts) {
	fs.DurationVar(&to.IO, "io-timeout", 0, "deadline for dials, handshakes, health probes and control writes (0 = default, negative = disabled)")
	fs.DurationVar(&to.SendStall, "send-stall", 0, "how long a send may stay parked on a full connection before failing (0 = default, negative = disabled)")
}

// splitterFlags holds the flags splitter and run share: the region
// configuration they set and the workload the splitter streams.
type splitterFlags struct {
	cfg         *runtime.RegionConfig
	tuples      uint64
	noBalance   bool
	keyed       bool
	skew        float64
	keys        int
	router      string
	seed        int64
	metricsAddr string
}

// bindSplitterFlags registers the flags splitter and run share on fs, those
// that set a runtime field bound to that field of cfg.
func bindSplitterFlags(fs *flag.FlagSet, cfg *runtime.RegionConfig) *splitterFlags {
	f := &splitterFlags{cfg: cfg}
	fs.Uint64Var(&f.tuples, "tuples", 50_000, "tuples to stream")
	fs.IntVar(&f.cfg.BatchSize, "batch", 0, "run length: consecutive tuples to one weighted round-robin pick, written at once unless the connection is congested (<= 1 = one pick per tuple)")
	fs.BoolVar(&f.noBalance, "no-balance", false, "disable balancing (plain round-robin)")
	fs.BoolVar(&f.keyed, "keyed", false, "stream deterministic keyed tuples (Zipf skew) instead of the unkeyed constant source")
	fs.Float64Var(&f.skew, "skew", 1.1, "Zipf exponent of the keyed stream (0 = uniform; needs -keyed)")
	fs.IntVar(&f.keys, "keys", 10_000, "key universe size (needs -keyed)")
	fs.StringVar(&f.router, "router", "pkg", "keyed routing policy: hash, pkg or dchoices (needs -keyed)")
	fs.Int64Var(&f.seed, "seed", 1, "key-generator seed; equal seeds give byte-identical streams (needs -keyed)")
	fs.DurationVar(&f.cfg.Recovery.StallWindow, "stall-window", 0, "merge-stall window: quarantine the worker holding the head-of-line tuple when the merger's watermark stops moving this long (0 = runtime.DefaultStallWindow, negative = off; needs recovery)")
	fs.IntVar(&f.cfg.Recovery.MaxReadmits, "max-readmits", 0, "quarantines one worker may survive before permanent eviction (0 = runtime.DefaultMaxReadmits, negative = unlimited; needs recovery)")
	fs.StringVar(&f.metricsAddr, "metrics-addr", "", "serve the splitter's /metrics and /trace on this address (empty = off)")
	timeoutFlags(fs, &f.cfg.Timeouts)
	return f
}

// region returns the region configuration the flags set for n workers, with
// its source, router, balancer, timeline and metrics, and the metrics server
// (nil when -metrics-addr is empty).
func (f *splitterFlags) region(w io.Writer, n int) (runtime.RegionConfig, *metrics.Server, error) {
	cfg := *f.cfg
	cfg.OnSample = timeline(w)
	var err error
	if !f.noBalance {
		if cfg.Balancer, err = core.NewBalancer(core.Config{Connections: n, DecayEnabled: true}); err != nil {
			return cfg, nil, err
		}
	}
	if f.keyed {
		cfg.KeyedSource = keyedSource(f.tuples, f.keys, f.skew, f.seed)
		if cfg.Router, err = keyedRouter(f.router, n); err != nil {
			return cfg, nil, err
		}
	} else {
		cfg.Source = runtime.ConstantSource(make([]byte, payloadBytes), f.tuples)
	}
	var srv *metrics.Server
	cfg.Metrics, srv, err = serveMetrics(w, f.metricsAddr)
	return cfg, srv, err
}

// shiftOperator is a ServiceOperator whose service time becomes after from
// sequence number at on: the external load the paper's dynamic experiments
// remove mid-run. It switches on the tuple it processes, so a worker process,
// which the splitter's source cannot reach, sheds its load at the same tuple
// as an in-process one.
type shiftOperator struct {
	*runtime.ServiceOperator
	at    uint64
	after time.Duration
}

// Process implements runtime.Operator.
func (op *shiftOperator) Process(t transport.Tuple) transport.Tuple {
	if t.Seq >= op.at {
		op.SetService(op.after)
	}
	return op.ServiceOperator.Process(t)
}

// delayOperator returns a worker's operator: a mean service time of delay per
// tuple, and of after from sequence number at on when at > 0.
func delayOperator(delay time.Duration, at uint64, after time.Duration) runtime.Operator {
	op := runtime.NewServiceOperator(delay)
	if at == 0 {
		return op
	}
	return &shiftOperator{ServiceOperator: op, at: at, after: after}
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
	if err := command(os.Stdout, os.Args[1], os.Args[2:]); err != nil {
		fmt.Fprintln(os.Stderr, "spe:", err)
		os.Exit(1)
	}
}

// A subcommand registers its flags on a new FlagSet, each one that sets a
// runtime field bound to that field of cfg and defaulting to its zero value,
// so the runtime's default applies. It returns the body that runs once the
// flags are parsed.
type subcommand func(cfg *runtime.RegionConfig) (*flag.FlagSet, func(w io.Writer) error)

var subcommands = map[string]subcommand{"merger": mergerCmd, "worker": workerCmd, "splitter": splitterCmd, "run": runCmd}

// command runs subcommand sub with args.
func command(w io.Writer, sub string, args []string) error {
	bind, ok := subcommands[sub]
	if !ok {
		return fmt.Errorf("unknown subcommand %q", sub)
	}
	fs, body := bind(new(runtime.RegionConfig))
	if err := fs.Parse(args); err != nil {
		return err
	}
	return body(w)
}

// mergerCmd hosts the in-order merger process.
func mergerCmd(cfg *runtime.RegionConfig) (*flag.FlagSet, func(io.Writer) error) {
	fs := flag.NewFlagSet("spe merger", flag.ContinueOnError)
	workers := fs.Int("workers", 0, "number of worker connections to accept")
	fs.IntVar(&cfg.MergerQueue, "queue", 0, "reorder backlog cap per worker connection, which also sizes its ingest ring (0 = default)")
	metricsAddr := fs.String("metrics-addr", "", "serve /metrics and /trace on this address (empty = off)")
	timeoutFlags(fs, &cfg.Timeouts)
	return fs, func(w io.Writer) error {
		if *workers <= 0 {
			return errors.New("merger: -workers must be positive")
		}
		var count uint64
		ordered := true
		var lastSeq uint64
		// Strictly increasing, not strictly contiguous: when workers run
		// per-key combiners, absorbed sequence numbers are released through
		// the watermark without a sink call, so gaps here are legitimate (and
		// accounted in the DONE line's combined count).
		m, err := runtime.NewMerger(*workers, cfg.MergerQueue, func(t transport.Tuple, conn int) {
			if count > 0 && t.Seq <= lastSeq {
				ordered = false
			}
			lastSeq = t.Seq
			count++
		})
		if err != nil {
			return err
		}
		m.SetTimeouts(cfg.Timeouts)
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
}

// workerCmd hosts one worker PE process.
func workerCmd(cfg *runtime.RegionConfig) (*flag.FlagSet, func(io.Writer) error) {
	fs := flag.NewFlagSet("spe worker", flag.ContinueOnError)
	id := fs.Int("id", -1, "worker id (must match the splitter's ordering)")
	merger := fs.String("merger", "", "merger address to forward to")
	delay := fs.Duration("delay", 0, "mean per-tuple service time (emulated load)")
	shiftAt := fs.Uint64("shift-at", 0, "sequence number from which -shift-delay replaces -delay (0 = never)")
	shiftDelay := fs.Duration("shift-delay", 0, "mean per-tuple service time from -shift-at on")
	combine := fs.Bool("combine", false, "fold same-key results per batch with the per-key sum combiner before forwarding")
	resilient := fs.Bool("resilient", false, "serve reconnecting splitters until killed (recovery mode)")
	timeoutFlags(fs, &cfg.Timeouts)
	return fs, func(w io.Writer) error {
		if *id < 0 || *merger == "" {
			return errors.New("worker: need -id and -merger")
		}
		op := runtime.Identity()
		if *delay > 0 || *shiftAt > 0 {
			op = delayOperator(*delay, *shiftAt, *shiftDelay)
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
		worker.SetTimeouts(cfg.Timeouts)
		fmt.Fprintf(w, "ADDR %s\n", worker.Addr())
		worker.Start()
		if err := worker.Wait(); err != nil {
			return err
		}
		fmt.Fprintln(w, "DONE")
		return nil
	}
}

// splitterCmd hosts the splitter (and controller) process.
func splitterCmd(cfg *runtime.RegionConfig) (*flag.FlagSet, func(io.Writer) error) {
	fs := flag.NewFlagSet("spe splitter", flag.ContinueOnError)
	workers := fs.String("workers", "", "comma-separated worker addresses, in id order")
	control := fs.String("control", "", "merger address for the recovery control channel (enables replay on worker failure)")
	fs.DurationVar(&cfg.SampleInterval, "interval", 0, "controller sampling interval (0 = runtime.DefaultSampleInterval)")
	f := bindSplitterFlags(fs, cfg)
	return fs, func(w io.Writer) error {
		if *workers == "" {
			return errors.New("splitter: need -workers")
		}
		return splitter(w, f, strings.Split(*workers, ","), *control)
	}
}

// splitter streams the flags' workload to the workers at addrs and prints
// its report. A control address switches recovery on.
func splitter(w io.Writer, f *splitterFlags, addrs []string, control string) error {
	cfg, msrv, err := f.region(w, len(addrs))
	if err != nil {
		return err
	}
	if msrv != nil {
		defer msrv.Close()
	}
	scfg := cfg.SplitterConfig()
	scfg.WorkerAddrs, scfg.ControlAddr = addrs, control
	scfg.OnConnEvent = func(ev runtime.ConnEvent) {
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
	report(w, sent, blocking, f.keyed, sp.KeyedStats(), cfg.Balancer)
	return nil
}

// runCmd runs one region with the load and balancing its flags choose. On
// the tcp transport it spawns the merger and workers as child processes of
// this binary and runs the splitter in this process; on inproc the whole
// region runs in this process and nothing is spawned.
func runCmd(cfg *runtime.RegionConfig) (*flag.FlagSet, func(io.Writer) error) {
	fs := flag.NewFlagSet("spe run", flag.ContinueOnError)
	workers := fs.Int("workers", 3, "number of worker processes")
	slowWorker := fs.Int("slow-worker", 0, "worker carrying extra load (-1 for none)")
	slowDelay := fs.Duration("slow-delay", time.Millisecond, "mean per-tuple service time of the loaded worker")
	baseDelay := fs.Duration("base-delay", 50*time.Microsecond, "mean per-tuple service time of unloaded workers")
	removeAt := fs.Float64("remove-at", 1, "fraction of the stream from which the loaded worker runs at -base-delay (>= 1 keeps its load)")
	recover := fs.Bool("recover", false, "enable worker-failure recovery (resilient workers + control channel)")
	transportKind := fs.String("transport", "tcp", "region transport: tcp (one OS process per PE over loopback) or inproc (one process, shared-memory rings)")
	combine := fs.Bool("combine", false, "workers fold same-key results per batch before the merge (needs -keyed)")
	f := bindSplitterFlags(fs, cfg)
	return fs, func(w io.Writer) error {
		if *workers < 1 {
			return errors.New("run: need at least one worker")
		}
		if *slowWorker < -1 || *slowWorker >= *workers {
			return fmt.Errorf("run: -slow-worker %d out of range with %d workers (-1 for none)", *slowWorker, *workers)
		}
		if *removeAt < 0 {
			return errors.New("run: -remove-at must not be negative")
		}
		// load is worker i's service time and the sequence number from which
		// it runs at -base-delay instead (0 = never).
		load := func(i int) (time.Duration, uint64) {
			if i != *slowWorker {
				return *baseDelay, 0
			}
			if *removeAt >= 1 {
				return *slowDelay, 0
			}
			at := uint64(*removeAt * float64(f.tuples))
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
			// The shared-memory transport: workers are goroutines, every edge
			// a bounded SPSC ring, and a ring-full wait elects to block
			// exactly like a full socket buffer does.
			ops := make([]runtime.Operator, *workers)
			for i := range ops {
				delay, at := load(i)
				ops[i] = delayOperator(delay, at, *baseDelay)
				fmt.Fprintf(w, "worker %d in-process (%s)\n", i, describe(delay, at))
			}
			rcfg, msrv, err := f.region(w, *workers)
			if err != nil {
				return err
			}
			if msrv != nil {
				defer msrv.Close()
			}
			rcfg.Transport = runtime.TransportInproc
			rcfg.Operators = ops
			if f.keyed && *combine {
				rcfg.Combiner = runtime.SumCombiner()
			}
			region, err := runtime.NewRegion(rcfg)
			if err != nil {
				return err
			}
			res, err := region.Run()
			if err != nil {
				return err
			}
			report(w, res.PerConnSent, res.TotalBlocking, f.keyed, res.KeyedSent, rcfg.Balancer)
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
		// SIGINT, SIGTERM, SIGHUP or a closed stdout stops the run: every
		// child is killed (exec.CommandContext), the splitter fails on its
		// dead peers, and the run returns an error through the kill-and-reap
		// below. With SIGPIPE notified, a write to a closed stdout fails with
		// EPIPE instead of killing the process (os/signal), and stopWriter
		// turns it into a stop.
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

		// Each child gets the timeout flags set on the command line.
		timeouts := flag.NewFlagSet("", flag.ContinueOnError)
		timeoutFlags(timeouts, new(runtime.Timeouts))
		var toArgs []string
		fs.Visit(func(fl *flag.Flag) {
			if timeouts.Lookup(fl.Name) != nil {
				toArgs = append(toArgs, "-"+fl.Name+"="+fl.Value.String())
			}
		})

		// Merger first: workers dial it.
		margs := append([]string{"-workers", fmt.Sprint(*workers)}, toArgs...)
		merger, mergerAddr, err := spawn(ctx, self, "merger", margs...)
		if err != nil {
			return fmt.Errorf("run: merger: %w", err)
		}
		children = append(children, merger)
		fmt.Fprintf(w, "merger listening on %s\n", mergerAddr)

		addrs := make([]string, *workers)
		for i := range addrs {
			delay, at := load(i)
			wargs := append([]string{"-id", fmt.Sprint(i), "-merger", mergerAddr, "-delay", delay.String()}, toArgs...)
			if at > 0 {
				wargs = append(wargs, "-shift-at", fmt.Sprint(at), "-shift-delay", baseDelay.String())
			}
			if *recover {
				wargs = append(wargs, "-resilient")
			}
			if f.keyed && *combine {
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

		control := ""
		if *recover {
			control = mergerAddr
		}
		err = splitter(w, f, addrs, control)
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
