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
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strings"
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
	queue := fs.Int("queue", 0, "reorder queue capacity per worker (0 = default)")
	recvBatch := fs.Int("recv-batch", 0, "cap on tuples ingested per receive pass (0 = none: a pass is what one read delivered; 1 makes every pass a batch of one)")
	ringCap := fs.Int("ring-cap", 0, "per-connection lock-free ingest ring capacity, rounded up to a power of two (0 = default)")
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
	if *recvBatch > 0 {
		m.SetRecvBatch(*recvBatch)
	}
	if *ringCap > 0 {
		m.SetRingCap(*ringCap)
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
	fmt.Fprintf(w, "DONE released=%d ordered=%v combined=%d\n", count, ordered, m.CombinedReleased())
	return nil
}

// runWorker hosts one worker PE process.
func runWorker(w io.Writer, args []string) error {
	fs := flag.NewFlagSet("spe worker", flag.ContinueOnError)
	id := fs.Int("id", -1, "worker id (must match the splitter's ordering)")
	merger := fs.String("merger", "", "merger address to forward to")
	delay := fs.Duration("delay", 0, "artificial per-tuple delay (emulated load)")
	spin := fs.Int64("spin", 0, "integer multiplies per tuple (CPU load)")
	service := fs.Duration("service", 0, "per-tuple wall-clock service time, debt-batched so it stays accurate below kernel sleep granularity")
	combine := fs.Bool("combine", false, "fold same-key results per batch with the per-key sum combiner before forwarding")
	recvBatch := fs.Int("recv-batch", 0, "cap on tuples received/processed/forwarded per pass (0 = none: a pass is what one read delivered; 1 makes every pass a batch of one)")
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
	case *delay > 0:
		op = runtime.NewDelayOperator(*delay)
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
	if *recvBatch > 0 {
		worker.SetRecvBatch(*recvBatch)
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
	var balancer *core.Balancer
	if !*noBalance {
		var err error
		balancer, err = core.NewBalancer(core.Config{Connections: len(addrs), DecayEnabled: true})
		if err != nil {
			return err
		}
	}
	scfg := runtime.SplitterConfig{
		WorkerAddrs:       addrs,
		Source:            runtime.ConstantSource(make([]byte, *payload), *tuples),
		Balancer:          balancer,
		SampleInterval:    *interval,
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
	fmt.Fprintf(w, "DONE sent=%v blocking=%v\n", sent, blocking)
	if *keyed {
		fmt.Fprintf(w, "keyedSent=%v\n", sp.KeyedStats())
	}
	if balancer != nil {
		fmt.Fprintf(w, "weights=%v\n", balancer.Weights())
	}
	return nil
}

// runAll spawns the merger and workers as child processes of this binary and
// runs the splitter in this process.
func runAll(w io.Writer, args []string) error {
	fs := flag.NewFlagSet("spe run", flag.ContinueOnError)
	workers := fs.Int("workers", 3, "number of worker processes")
	tuples := fs.Uint64("tuples", 50_000, "tuples to stream")
	slowWorker := fs.Int("slow-worker", 0, "worker carrying extra load (-1 for none)")
	slowDelay := fs.Duration("slow-delay", time.Millisecond, "per-tuple delay of the loaded worker")
	baseDelay := fs.Duration("base-delay", 50*time.Microsecond, "per-tuple delay of unloaded workers")
	recover := fs.Bool("recover", false, "enable worker-failure recovery (resilient workers + control channel)")
	transportKind := fs.String("transport", "tcp", "region transport: tcp (one OS process per PE over loopback) or inproc (one process, shared-memory rings)")
	batch := fs.Int("batch", 1, "run length: consecutive tuples to one weighted round-robin pick, written at once unless the connection is congested (1 = one pick per tuple)")
	recvBatch := fs.Int("recv-batch", 0, "cap on tuples per receive pass in workers and merger (0 = none: a pass is what one read delivered; 1 makes every pass a batch of one)")
	ringCap := fs.Int("ring-cap", 0, "merger per-connection ingest ring capacity (0 = default)")
	stallWindow := fs.Duration("stall-window", 0, "splitter's merge-stall window (0 = off; needs -recover)")
	maxReadmits := fs.Int("max-readmits", 0, "quarantines one worker may survive before permanent eviction (0 = default, negative = unlimited)")
	keyed := fs.Bool("keyed", false, "stream deterministic keyed tuples (Zipf skew) instead of the unkeyed constant source")
	skew := fs.Float64("skew", 1.1, "Zipf exponent of the keyed stream (0 = uniform; needs -keyed)")
	keys := fs.Int("keys", 10_000, "key universe size (needs -keyed)")
	router := fs.String("router", "pkg", "keyed routing policy: hash, pkg or dchoices (needs -keyed)")
	combine := fs.Bool("combine", false, "workers fold same-key results per batch before the merge (needs -keyed)")
	seed := fs.Int64("seed", 1, "key-generator seed; equal seeds give byte-identical streams (needs -keyed)")
	ioTO := fs.Duration("io-timeout", 0, "deadline for dials, handshakes, probes and control writes in every component (0 = defaults)")
	sendStall := fs.Duration("send-stall", 0, "parked-send bound in splitter and workers (0 = default)")
	metricsAddr := fs.String("metrics-addr", "", "serve the splitter's /metrics and /trace on this address (empty = off)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *workers < 1 {
		return errors.New("run: need at least one worker")
	}
	switch *transportKind {
	case "", "tcp":
	case "inproc":
		if *recover {
			return errors.New("run: -recover needs the tcp transport (recovery is a remote-process protocol)")
		}
		return runAllInproc(w, inprocRunConfig{
			workers:     *workers,
			tuples:      *tuples,
			slowWorker:  *slowWorker,
			slowDelay:   *slowDelay,
			baseDelay:   *baseDelay,
			batch:       *batch,
			recvBatch:   *recvBatch,
			ringCap:     *ringCap,
			sendStall:   *sendStall,
			metricsAddr: *metricsAddr,
			keyed:       *keyed,
			skew:        *skew,
			keys:        *keys,
			router:      *router,
			combine:     *combine,
			seed:        *seed,
		})
	default:
		return fmt.Errorf("run: unknown -transport %q (tcp or inproc)", *transportKind)
	}
	self, err := os.Executable()
	if err != nil {
		return fmt.Errorf("run: locate own binary: %w", err)
	}

	// Merger first: workers dial it.
	margs := []string{"-workers", fmt.Sprint(*workers)}
	if *recvBatch > 0 {
		margs = append(margs, "-recv-batch", fmt.Sprint(*recvBatch))
	}
	if *ringCap > 0 {
		margs = append(margs, "-ring-cap", fmt.Sprint(*ringCap))
	}
	if *ioTO != 0 {
		margs = append(margs, "-io-timeout", ioTO.String())
	}
	mergerCmd, mergerAddr, err := spawn(self, "merger", margs...)
	if err != nil {
		return fmt.Errorf("run: merger: %w", err)
	}
	fmt.Fprintf(w, "merger listening on %s\n", mergerAddr)

	workerCmds := make([]*exec.Cmd, *workers)
	addrs := make([]string, *workers)
	for i := 0; i < *workers; i++ {
		delay := *baseDelay
		if i == *slowWorker {
			delay = *slowDelay
		}
		wargs := []string{
			"-id", fmt.Sprint(i),
			"-merger", mergerAddr,
			"-delay", delay.String(),
		}
		if *recvBatch > 0 {
			wargs = append(wargs, "-recv-batch", fmt.Sprint(*recvBatch))
		}
		if *recover {
			wargs = append(wargs, "-resilient")
		}
		if *keyed && *combine {
			wargs = append(wargs, "-combine")
		}
		if *ioTO != 0 {
			wargs = append(wargs, "-io-timeout", ioTO.String())
		}
		if *sendStall != 0 {
			wargs = append(wargs, "-send-stall", sendStall.String())
		}
		cmd, addr, err := spawn(self, "worker", wargs...)
		if err != nil {
			return fmt.Errorf("run: worker %d: %w", i, err)
		}
		workerCmds[i] = cmd
		addrs[i] = addr
		fmt.Fprintf(w, "worker %d listening on %s (delay %v)\n", i, addr, delay)
	}

	sargs := []string{
		"-workers", strings.Join(addrs, ","),
		"-tuples", fmt.Sprint(*tuples),
		"-batch", fmt.Sprint(*batch),
	}
	if *keyed {
		sargs = append(sargs,
			"-keyed",
			"-skew", fmt.Sprint(*skew),
			"-keys", fmt.Sprint(*keys),
			"-router", *router,
			"-seed", fmt.Sprint(*seed),
		)
	}
	if *recover {
		sargs = append(sargs, "-control", mergerAddr)
		if *maxReadmits != 0 {
			sargs = append(sargs, "-max-readmits", fmt.Sprint(*maxReadmits))
		}
		if *stallWindow > 0 {
			sargs = append(sargs, "-stall-window", stallWindow.String())
		}
	}
	if *ioTO != 0 {
		sargs = append(sargs, "-io-timeout", ioTO.String())
	}
	if *sendStall != 0 {
		sargs = append(sargs, "-send-stall", sendStall.String())
	}
	if *metricsAddr != "" {
		sargs = append(sargs, "-metrics-addr", *metricsAddr)
	}
	if err := runSplitter(w, sargs); err != nil {
		return fmt.Errorf("run: splitter: %w", err)
	}
	for i, cmd := range workerCmds {
		if *recover {
			// Resilient workers serve until killed.
			cmd.Process.Kill()
			cmd.Wait()
			continue
		}
		if err := cmd.Wait(); err != nil {
			return fmt.Errorf("run: wait worker %d: %w", i, err)
		}
	}
	if err := mergerCmd.Wait(); err != nil {
		return fmt.Errorf("run: wait merger: %w", err)
	}
	fmt.Fprintln(w, "all processes exited cleanly")
	return nil
}

// inprocRunConfig carries the run-subcommand flags that apply to the
// in-process transport.
type inprocRunConfig struct {
	workers    int
	tuples     uint64
	slowWorker int
	slowDelay  time.Duration
	baseDelay  time.Duration
	batch      int
	recvBatch  int
	ringCap    int
	sendStall  time.Duration

	metricsAddr string

	keyed   bool
	skew    float64
	keys    int
	router  string
	combine bool
	seed    int64
}

// runAllInproc runs the same region as runAll entirely inside this process on
// the shared-memory transport: workers become goroutines, every edge becomes a
// bounded SPSC ring, and nothing is spawned. The balancer and its blocking
// signal are identical — ring-full waits elect to block exactly like full
// socket buffers do.
func runAllInproc(w io.Writer, cfg inprocRunConfig) error {
	ops := make([]runtime.Operator, cfg.workers)
	for i := range ops {
		delay := cfg.baseDelay
		if i == cfg.slowWorker {
			delay = cfg.slowDelay
		}
		ops[i] = runtime.NewDelayOperator(delay)
		fmt.Fprintf(w, "worker %d in-process (delay %v)\n", i, delay)
	}
	balancer, err := core.NewBalancer(core.Config{Connections: cfg.workers, DecayEnabled: true})
	if err != nil {
		return err
	}
	rcfg := runtime.RegionConfig{
		Transport:      runtime.TransportInproc,
		Operators:      ops,
		Balancer:       balancer,
		SampleInterval: 100 * time.Millisecond,
		BatchSize:      cfg.batch,
		RecvBatchSize:  cfg.recvBatch,
		RingCap:        cfg.ringCap,
		Timeouts:       runtime.Timeouts{SendStall: cfg.sendStall},
	}
	if cfg.keyed {
		rcfg.KeyedSource = keyedSource(cfg.tuples, 256, cfg.keys, cfg.skew, 0, 0, cfg.seed)
		r, err := keyedRouter(cfg.router, cfg.workers)
		if err != nil {
			return err
		}
		rcfg.Router = r
		if cfg.combine {
			rcfg.Combiner = runtime.SumCombiner()
		}
	} else {
		rcfg.Source = runtime.ConstantSource(make([]byte, 256), cfg.tuples)
	}
	rm, msrv, err := serveMetrics(w, cfg.metricsAddr)
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
	fmt.Fprintf(w, "DONE sent=%v blocking=%v\n", res.PerConnSent, res.TotalBlocking)
	if cfg.keyed {
		fmt.Fprintf(w, "keyedSent=%v\n", res.KeyedSent)
	}
	fmt.Fprintf(w, "weights=%v\n", balancer.Weights())
	fmt.Fprintf(w, "DONE released=%d ordered=%v combined=%d\n", res.Released, res.OrderPreserved, res.CombinedReleased)
	fmt.Fprintln(w, "all processes exited cleanly")
	return nil
}

// spawn starts a child subcommand and reads its ADDR announcement.
func spawn(self, sub string, args ...string) (*exec.Cmd, string, error) {
	cmd := exec.Command(self, append([]string{sub}, args...)...)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, "", err
	}
	if err := cmd.Start(); err != nil {
		return nil, "", err
	}
	scanner := bufio.NewScanner(stdout)
	for scanner.Scan() {
		line := scanner.Text()
		if addr, ok := strings.CutPrefix(line, "ADDR "); ok {
			// Keep draining the child's stdout in the background so it
			// never blocks writing its DONE line.
			go func() {
				for scanner.Scan() {
				}
			}()
			return cmd, addr, nil
		}
	}
	if err := cmd.Wait(); err != nil {
		return nil, "", fmt.Errorf("child exited before announcing address: %w", err)
	}
	return nil, "", errors.New("child exited before announcing address")
}
