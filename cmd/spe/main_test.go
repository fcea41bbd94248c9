package main

import (
	"bufio"
	"bytes"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"streambalance/internal/runtime"
	"streambalance/internal/transport"
)

// speBinary is built once for the process-level integration tests.
var speBinary string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "spe-test")
	if err != nil {
		os.Exit(1)
	}
	speBinary = filepath.Join(dir, "spe")
	build := exec.Command("go", "build", "-o", speBinary, ".")
	build.Stderr = os.Stderr
	if err := build.Run(); err != nil {
		os.RemoveAll(dir)
		os.Exit(1)
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

func TestSubcommandValidation(t *testing.T) {
	tests := []struct {
		name string
		run  func(*bytes.Buffer) error
	}{
		{"unknown subcommand", func(b *bytes.Buffer) error { return command(b, "shuffler", nil) }},
		{"merger without workers", func(b *bytes.Buffer) error { return command(b, "merger", nil) }},
		{"worker without id", func(b *bytes.Buffer) error { return command(b, "worker", []string{"-merger", "x"}) }},
		{"worker without merger", func(b *bytes.Buffer) error { return command(b, "worker", []string{"-id", "0"}) }},
		{"splitter without workers", func(b *bytes.Buffer) error { return command(b, "splitter", nil) }},
		{"run with zero workers", func(b *bytes.Buffer) error { return command(b, "run", []string{"-workers", "0"}) }},
		{"run with unknown transport", func(b *bytes.Buffer) error {
			return command(b, "run", []string{"-transport", "carrier-pigeon"})
		}},
		{"run recovery on inproc transport", func(b *bytes.Buffer) error {
			return command(b, "run", []string{"-transport", "inproc", "-recover"})
		}},
		{"run with out-of-range slow worker", func(b *bytes.Buffer) error {
			return command(b, "run", []string{"-transport", "inproc", "-workers", "2", "-slow-worker", "5"})
		}},
		{"run with slow worker below -1", func(b *bytes.Buffer) error {
			return command(b, "run", []string{"-transport", "inproc", "-workers", "2", "-slow-worker", "-2"})
		}},
		{"run with negative remove-at", func(b *bytes.Buffer) error {
			return command(b, "run", []string{"-transport", "inproc", "-remove-at", "-0.5"})
		}},
		{"run with unknown flag", func(b *bytes.Buffer) error { return command(b, "run", []string{"-bogus"}) }},
		{"merger with -ring-cap", func(b *bytes.Buffer) error {
			return command(b, "merger", []string{"-workers", "2", "-ring-cap", "8"})
		}},
		{"worker with -recv-batch", func(b *bytes.Buffer) error {
			return command(b, "worker", []string{"-id", "0", "-merger", "x", "-recv-batch", "1"})
		}},
		{"run with -recv-batch", func(b *bytes.Buffer) error {
			return command(b, "run", []string{"-transport", "inproc", "-recv-batch", "1"})
		}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			var buf bytes.Buffer
			if err := tt.run(&buf); err == nil {
				t.Fatal("invalid arguments accepted")
			}
		})
	}
	// Flags deleted with the one configuration surface are undefined.
	for _, args := range [][]string{
		{"splitter", "-payload", "1"}, {"splitter", "-sockbuf", "1"}, {"splitter", "-hot-share", "0.5"},
		{"splitter", "-churn", "1"}, {"splitter", "-retain", "1"}, {"splitter", "-no-redial"},
		{"worker", "-spin", "1"}, {"worker", "-service", "1ms"},
		{"merger", "-queue", "64"},
	} {
		t.Run(args[0]+" with "+args[1], func(t *testing.T) {
			if err := command(io.Discard, args[0], args[1:]); err == nil || !strings.Contains(err.Error(), "flag provided but not defined") {
				t.Fatalf("spe %v: %v, want the flag rejected as undefined", args, err)
			}
		})
	}
}

// TestFlagDefaultsAreTheRuntimes pins that spe runs the library's
// configuration: in every subcommand, a flag that sets a runtime config field
// defaults to that field's zero value, so the runtime's default applies.
func TestFlagDefaultsAreTheRuntimes(t *testing.T) {
	bound := map[string][]string{
		"merger":   {"io-timeout", "send-stall"},
		"worker":   {"io-timeout", "send-stall"},
		"splitter": {"interval", "batch", "stall-window", "max-readmits", "io-timeout", "send-stall"},
		"run":      {"batch", "stall-window", "max-readmits", "io-timeout", "send-stall"},
	}
	for sub, bind := range subcommands {
		cfg := new(runtime.RegionConfig)
		fs, _ := bind(cfg)
		fs.VisitAll(func(fl *flag.Flag) {
			*cfg = runtime.RegionConfig{}
			if err := fl.Value.Set(fl.DefValue); err != nil {
				t.Fatalf("%s -%s: default %q does not parse: %v", sub, fl.Name, fl.DefValue, err)
			}
			if !reflect.DeepEqual(*cfg, runtime.RegionConfig{}) {
				t.Errorf("%s -%s defaults to %s, in place of the runtime's default", sub, fl.Name, fl.DefValue)
			}
		})
		for _, name := range bound[sub] {
			if fs.Lookup(name) == nil {
				t.Errorf("%s: -%s is not registered", sub, name)
			}
		}
	}
}

func TestMultiProcessPipeline(t *testing.T) {
	// The full deployment model: merger and workers as separate OS
	// processes, splitter orchestrating, all over loopback TCP.
	cmd := exec.Command(speBinary, "run",
		"-workers", "3",
		"-tuples", "12000",
		"-slow-worker", "0",
		"-slow-delay", "1ms",
		"-base-delay", "50us",
	)
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("spe run failed: %v\n%s", err, out)
	}
	body := string(out)
	if !strings.Contains(body, "all processes exited cleanly") {
		t.Fatalf("pipeline did not complete:\n%s", body)
	}
	if !strings.Contains(body, "weights=") {
		t.Fatalf("no balancer weights reported:\n%s", body)
	}
	if strings.Count(body, "worker ") < 3 {
		t.Fatalf("missing worker announcements:\n%s", body)
	}
}

func TestInprocPipeline(t *testing.T) {
	// The same region as TestMultiProcessPipeline, but co-located on the
	// shared-memory transport: no children are spawned, workers are
	// goroutines, and the report must show a complete ordered stream with
	// balancer weights shaped by the same blocking signal.
	var buf bytes.Buffer
	if err := command(&buf, "run", []string{
		"-transport", "inproc",
		"-workers", "3",
		"-tuples", "12000",
		"-slow-worker", "0",
		"-slow-delay", "1ms",
		"-base-delay", "50us",
		"-batch", "4",
	}); err != nil {
		t.Fatalf("spe run -transport inproc failed: %v\n%s", err, buf.String())
	}
	body := buf.String()
	if !strings.Contains(body, "released=12000 ordered=true") {
		t.Fatalf("incomplete or unordered release:\n%s", body)
	}
	if !strings.Contains(body, "weights=") {
		t.Fatalf("no balancer weights reported:\n%s", body)
	}
	if strings.Count(body, "in-process") != 3 {
		t.Fatalf("missing worker announcements:\n%s", body)
	}
}

// runRegion runs `spe run` on the given transport and returns its output:
// in this process on inproc, through the built binary on tcp, whose children
// are that binary's subcommands.
func runRegion(t *testing.T, transportKind string, args ...string) string {
	t.Helper()
	args = append([]string{"-transport", transportKind}, args...)
	if transportKind == "inproc" {
		var buf bytes.Buffer
		if err := command(&buf, "run", args); err != nil {
			t.Fatalf("spe run %v: %v\n%s", args, err, buf.String())
		}
		return buf.String()
	}
	out, err := exec.Command(speBinary, append([]string{"run"}, args...)...).CombinedOutput()
	if err != nil {
		t.Fatalf("spe run %v: %v\n%s", args, err, out)
	}
	return string(out)
}

func TestRunBalancedPipeline(t *testing.T) {
	// A loaded worker against unloaded ones: the run must release every
	// tuple in order and print the balancer's learned functions, also when
	// the load is taken away halfway (the worker switches on the tuple's
	// sequence number, in a spawned process too). Where the load stays, at
	// the default delays (1ms against 50us), the balancer must send the
	// loaded worker less than half of what it sends each unloaded one.
	for _, tc := range []struct {
		name   string
		args   []string
		tuples int
		loaded bool
	}{
		{"inproc", []string{"inproc", "-workers", "3"}, 20000, true},
		{"tcp", []string{"tcp", "-workers", "3"}, 20000, true},
		{"tcp remove-at", []string{"tcp", "-remove-at", "0.5", "-workers", "2", "-base-delay", "20us", "-slow-delay", "400us"}, 3000, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			out := runRegion(t, tc.args[0], append(tc.args[1:], "-tuples", fmt.Sprint(tc.tuples))...)
			if !strings.Contains(out, fmt.Sprintf("released=%d ordered=true", tc.tuples)) {
				t.Fatalf("incomplete or unordered release:\n%s", out)
			}
			if !strings.Contains(out, "learned blocking-rate functions") {
				t.Fatalf("function dump missing:\n%s", out)
			}
			if !tc.loaded {
				return
			}
			sent := parseSent(t, out)
			if len(sent) != 3 {
				t.Fatalf("DONE line names %d workers, want 3:\n%s", len(sent), out)
			}
			for i, n := range sent[1:] {
				if 2*sent[0] >= n {
					t.Fatalf("loaded worker 0 sent %d tuples, not under half of worker %d's %d: %v\n%s",
						sent[0], i+1, n, sent, out)
				}
			}
		})
	}
}

// parseSent extracts the per-worker counts from the splitter's DONE line
// ("DONE sent=[a b c] blocking=[...]").
func parseSent(t *testing.T, out string) []int64 {
	t.Helper()
	m := regexp.MustCompile(`DONE sent=\[([0-9 ]*)\]`).FindStringSubmatch(out)
	if m == nil {
		t.Fatalf("no splitter DONE line:\n%s", out)
	}
	var sent []int64
	for _, f := range strings.Fields(m[1]) {
		var n int64
		fmt.Sscanf(f, "%d", &n)
		sent = append(sent, n)
	}
	return sent
}

func TestRunRoundRobinPipeline(t *testing.T) {
	// Without a balancer there are no learned functions to print.
	for _, tc := range []struct {
		name string
		args []string
	}{
		{"inproc", []string{"inproc"}},
		{"tcp remove-at", []string{"tcp", "-remove-at", "0.5"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			out := runRegion(t, tc.args[0], append(tc.args[1:],
				"-workers", "2",
				"-tuples", "1500",
				"-base-delay", "10us",
				"-slow-delay", "200us",
				"-no-balance",
			)...)
			if !strings.Contains(out, "released=1500 ordered=true") {
				t.Fatalf("incomplete or unordered release:\n%s", out)
			}
			if strings.Contains(out, "learned blocking-rate functions") || strings.Contains(out, "weights=") {
				t.Fatalf("balancer report printed without a balancer:\n%s", out)
			}
		})
	}
}

func TestShiftOperatorSwitchesOnSequence(t *testing.T) {
	const slow, base = 2 * time.Microsecond, time.Microsecond
	if _, ok := delayOperator(slow, 0, base).(*runtime.ServiceOperator); !ok {
		t.Fatal("shift at 0 must be a plain service operator")
	}
	op := delayOperator(slow, 10, base).(*shiftOperator)
	for _, step := range []struct {
		seq  uint64
		want time.Duration
	}{
		{0, slow},
		{9, slow},
		{10, base},
		{11, base},
		{3, base}, // a replayed earlier tuple does not bring the load back
	} {
		op.Process(transport.Tuple{Seq: step.seq})
		if got := op.Service(); got != step.want {
			t.Fatalf("after seq %d: service %v, want %v", step.seq, got, step.want)
		}
	}
}

func TestRunLeavesNoChildOnError(t *testing.T) {
	// The splitter rejects the router after the merger and workers are up:
	// run must kill and reap them before it exits, so every address it
	// announced refuses a dial. The run gets its own process group, killed
	// at cleanup, so a regression cannot leak processes past the test.
	// The output goes to a file, not a pipe: a leaked child holding a pipe
	// open would keep Wait from returning.
	f, err := os.CreateTemp(t.TempDir(), "run")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	cmd := exec.Command(speBinary, "run", "-workers", "2", "-tuples", "100", "-keyed", "-router", "bogus")
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true}
	cmd.Stdout = f
	cmd.Stderr = f
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { syscall.Kill(-cmd.Process.Pid, syscall.SIGKILL) })
	runErr := cmd.Wait()
	out, err := os.ReadFile(f.Name())
	if err != nil {
		t.Fatal(err)
	}
	if runErr == nil {
		t.Fatalf("run with an unknown router succeeded:\n%s", out)
	}
	addrs := regexp.MustCompile(`listening on (\S+)`).FindAllStringSubmatch(string(out), -1)
	if len(addrs) != 3 {
		t.Fatalf("want the merger and two workers announced, got %d:\n%s", len(addrs), out)
	}
	for _, m := range addrs {
		if conn, err := net.DialTimeout("tcp", m[1], time.Second); err == nil {
			conn.Close()
			t.Errorf("%s still accepts connections after run exited", m[1])
		}
	}
}

// TestRunStopLeavesNoChild stops a long recovery-mode run from outside —
// SIGTERM to the run's pid alone, or its stdout reader going away, as under
// `spe run | head -1` — once both workers are listening. The run must kill
// and reap every child and exit non-zero, so every address it announced
// refuses a dial. SIGKILL to the run's pid alone leaves it no say: its
// children must die with it, so every address refuses a dial within 10 s.
// The run gets its own process group, killed at cleanup, so a regression
// cannot leak processes past the test.
func TestRunStopLeavesNoChild(t *testing.T) {
	for _, how := range []string{"sigterm", "closed-stdout", "sigkill"} {
		t.Run(how, func(t *testing.T) {
			stdout, w, err := os.Pipe()
			if err != nil {
				t.Fatal(err)
			}
			defer stdout.Close()
			cmd := exec.Command(speBinary, "run", "-workers", "2", "-tuples", "5000000",
				"-slow-delay", "1ms", "-recover")
			cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true}
			cmd.Stdout = w // Stderr stays nil: the null device, no copying pipe
			if err := cmd.Start(); err != nil {
				t.Fatal(err)
			}
			w.Close()
			t.Cleanup(func() { syscall.Kill(-cmd.Process.Pid, syscall.SIGKILL) })

			var addrs []string
			listening := regexp.MustCompile(`listening on (\S+)`)
			workers := 0
			scanner := bufio.NewScanner(stdout)
			for workers < 2 && scanner.Scan() {
				if m := listening.FindStringSubmatch(scanner.Text()); m != nil {
					addrs = append(addrs, m[1])
					if strings.HasPrefix(scanner.Text(), "worker ") {
						workers++
					}
				}
			}
			if workers < 2 {
				t.Fatalf("run ended before both workers listened: %v", scanner.Err())
			}
			switch how {
			case "sigterm":
				go io.Copy(io.Discard, stdout)
				if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
					t.Fatal(err)
				}
			case "sigkill":
				// Only run's own pid: its children must die with it.
				go io.Copy(io.Discard, stdout)
				if err := cmd.Process.Kill(); err != nil {
					t.Fatal(err)
				}
			default:
				stdout.Close()
			}
			exited := make(chan error, 1)
			go func() { exited <- cmd.Wait() }()
			select {
			case err := <-exited:
				if err == nil {
					t.Fatal("stopped run exited 0")
				}
			case <-time.After(30 * time.Second):
				t.Fatal("run still running 30s after the stop")
			}
			// A killed run reaps nothing, so its children may still be on
			// their way out: give them 10 s to stop accepting.
			deadline := time.Now().Add(10 * time.Second)
			for _, addr := range addrs {
				for {
					conn, err := net.DialTimeout("tcp", addr, time.Second)
					if err != nil {
						break
					}
					conn.Close()
					if how != "sigkill" || time.Now().After(deadline) {
						t.Errorf("%s still accepts connections after run exited", addr)
						break
					}
					time.Sleep(50 * time.Millisecond)
				}
			}
		})
	}
}

// child wraps a spawned spe subprocess whose stdout is consumed line by line.
type child struct {
	cmd  *exec.Cmd
	addr string

	mu      sync.Mutex
	rest    []string
	drained chan struct{}
}

// startChild launches a subcommand and waits for its ADDR announcement;
// later output is collected for inspection after Wait.
func startChild(t *testing.T, args ...string) *child {
	t.Helper()
	c := &child{cmd: exec.Command(speBinary, args...)}
	c.cmd.Stderr = os.Stderr
	stdout, err := c.cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := c.cmd.Start(); err != nil {
		t.Fatal(err)
	}
	scanner := bufio.NewScanner(stdout)
	for scanner.Scan() {
		line := scanner.Text()
		if addr, ok := strings.CutPrefix(line, "ADDR "); ok {
			c.addr = addr
			break
		}
	}
	if c.addr == "" {
		c.cmd.Wait()
		t.Fatalf("child %v exited before announcing an address", args)
	}
	c.drained = make(chan struct{})
	go func() {
		defer close(c.drained)
		for scanner.Scan() {
			c.mu.Lock()
			c.rest = append(c.rest, scanner.Text())
			c.mu.Unlock()
		}
	}()
	return c
}

// wait joins the child and returns its post-ADDR output. The drain goroutine
// is joined first — it ends at EOF, when the child has exited — because
// cmd.Wait closes the stdout pipe, and a Wait that wins the race against the
// last read drops the final lines (like the merger's DONE report).
func (c *child) wait(t *testing.T) string {
	t.Helper()
	<-c.drained
	if err := c.cmd.Wait(); err != nil {
		t.Fatalf("child exited with %v", err)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return strings.Join(c.rest, "\n")
}

func TestMultiProcessRoundTripOrdered(t *testing.T) {
	// Wire a merger and two worker processes by hand, as an operator
	// would, then drive them with the splitter run in this process; the
	// merger must report a complete, ordered stream.
	merger := startChild(t, "merger", "-workers", "2")
	w0 := startChild(t, "worker", "-id", "0", "-merger", merger.addr, "-delay", "20us")
	w1 := startChild(t, "worker", "-id", "1", "-merger", merger.addr, "-delay", "20us")

	var splitterOut bytes.Buffer
	if err := command(&splitterOut, "splitter", []string{
		"-workers", w0.addr + "," + w1.addr,
		"-tuples", "5000",
		"-interval", "25ms",
	}); err != nil {
		t.Fatalf("splitter: %v", err)
	}
	w0.wait(t)
	w1.wait(t)
	report := merger.wait(t)
	if !strings.Contains(report, "released=5000 ordered=true") {
		t.Fatalf("merger report: %q", report)
	}
	if !strings.Contains(splitterOut.String(), "DONE sent=") {
		t.Fatalf("splitter report:\n%s", splitterOut.String())
	}
}

func TestMetricsEndpointOnRunningRegion(t *testing.T) {
	// The acceptance check for the observability layer: while a region is
	// streaming, GET /metrics must return Prometheus text carrying the
	// per-connection blocking-rate and weight gauges, and /trace must
	// return the balancer's decision log.
	merger := startChild(t, "merger", "-workers", "2")
	w0 := startChild(t, "worker", "-id", "0", "-merger", merger.addr, "-delay", "100us")
	w1 := startChild(t, "worker", "-id", "1", "-merger", merger.addr, "-delay", "100us")

	pr, pw := io.Pipe()
	splitterErr := make(chan error, 1)
	go func() {
		err := command(pw, "splitter", []string{
			"-workers", w0.addr + "," + w1.addr,
			"-tuples", "30000",
			"-interval", "25ms",
			"-metrics-addr", "127.0.0.1:0",
		})
		splitterErr <- err
		pw.CloseWithError(err)
	}()
	scanner := bufio.NewScanner(pr)
	var metricsAddr string
	for scanner.Scan() {
		if a, ok := strings.CutPrefix(scanner.Text(), "METRICS "); ok {
			metricsAddr = a
			break
		}
	}
	if metricsAddr == "" {
		t.Fatalf("splitter never announced METRICS: %v", <-splitterErr)
	}
	// Keep draining the pipe so the splitter never blocks on stdout.
	go func() {
		for scanner.Scan() {
		}
	}()

	// The gauges appear after the first controller tick, so poll while the
	// region streams.
	deadline := time.Now().Add(10 * time.Second)
	var body string
	for {
		resp, err := http.Get("http://" + metricsAddr + "/metrics")
		if err == nil {
			if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
				t.Fatalf("metrics content type %q", ct)
			}
			b, rerr := io.ReadAll(resp.Body)
			resp.Body.Close()
			if rerr == nil {
				body = string(b)
				if strings.Contains(body, `spe_splitter_blocking_rate{conn="0"}`) &&
					strings.Contains(body, `spe_splitter_blocking_rate{conn="1"}`) &&
					strings.Contains(body, `spe_balancer_weight_units{conn="0"}`) &&
					strings.Contains(body, `spe_balancer_weight_units{conn="1"}`) {
					break
				}
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("gauges never appeared on /metrics; last scrape:\n%s", body)
		}
		time.Sleep(20 * time.Millisecond)
	}
	// Every sample line must be well formed enough for a scraper: a
	// metric name, optional labels, and a float value.
	for _, line := range strings.Split(body, "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp <= 0 {
			t.Fatalf("malformed sample line %q", line)
		}
	}
	if !strings.Contains(body, "# TYPE spe_splitter_blocking_seconds_total counter") {
		t.Fatalf("missing TYPE header for blocking counter:\n%s", body)
	}

	// The trace endpoint serves the decision ring as JSON while running.
	resp, err := http.Get("http://" + metricsAddr + "/trace")
	if err == nil {
		tb, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if !strings.HasPrefix(resp.Header.Get("Content-Type"), "application/json") {
			t.Fatalf("trace content type %q", resp.Header.Get("Content-Type"))
		}
		if !strings.Contains(string(tb), `"events"`) {
			t.Fatalf("trace dump missing events envelope: %s", tb)
		}
	}

	if err := <-splitterErr; err != nil {
		t.Fatalf("splitter: %v", err)
	}
	w0.wait(t)
	w1.wait(t)
	report := merger.wait(t)
	if !strings.Contains(report, "released=30000 ordered=true") {
		t.Fatalf("merger report: %q", report)
	}
}

func TestKeyedPipelineWithCombine(t *testing.T) {
	// A keyed Zipf stream over two worker processes, PKG-routed, with the
	// per-key sum combiner in each worker. The merger's release stream may
	// legitimately skip absorbed sequences, but released + combined must
	// still cover the whole stream exactly once.
	merger := startChild(t, "merger", "-workers", "2")
	w0 := startChild(t, "worker", "-id", "0", "-merger", merger.addr, "-combine")
	w1 := startChild(t, "worker", "-id", "1", "-merger", merger.addr, "-combine")

	var splitterOut bytes.Buffer
	if err := command(&splitterOut, "splitter", []string{
		"-workers", w0.addr + "," + w1.addr,
		"-tuples", "8000",
		"-batch", "16",
		"-keyed",
		"-skew", "1.5",
		"-keys", "50",
		"-router", "pkg",
		"-seed", "7",
		"-interval", "25ms",
	}); err != nil {
		t.Fatalf("splitter: %v", err)
	}
	w0.wait(t)
	w1.wait(t)
	report := merger.wait(t)
	released, combined := parseMergerReport(t, report)
	if released+combined != 8000 {
		t.Fatalf("released %d + combined %d != 8000:\n%s", released, combined, report)
	}
	if combined == 0 {
		t.Fatalf("combiner never absorbed a tuple at skew 1.5 over 50 keys:\n%s", report)
	}
	if !strings.Contains(report, "ordered=true") {
		t.Fatalf("merger saw out-of-order releases:\n%s", report)
	}
	if !strings.Contains(splitterOut.String(), "keyedSent=") {
		t.Fatalf("splitter did not report keyed routing stats:\n%s", splitterOut.String())
	}
}

func TestKeyedInprocPipeline(t *testing.T) {
	// The same keyed workload co-located on the shared-memory transport via
	// spe run, hash-routed with combining, driven by a fixed seed.
	var buf bytes.Buffer
	if err := command(&buf, "run", []string{
		"-transport", "inproc",
		"-workers", "3",
		"-tuples", "9000",
		"-batch", "8",
		"-keyed",
		"-skew", "1.5",
		"-keys", "40",
		"-router", "hash",
		"-combine",
		"-seed", "3",
	}); err != nil {
		t.Fatalf("spe run -keyed inproc failed: %v\n%s", err, buf.String())
	}
	body := buf.String()
	released, combined := parseMergerReport(t, body)
	if released+combined != 9000 {
		t.Fatalf("released %d + combined %d != 9000:\n%s", released, combined, body)
	}
	if combined == 0 {
		t.Fatalf("combiner never absorbed a tuple:\n%s", body)
	}
	if !strings.Contains(body, "ordered=true") || !strings.Contains(body, "keyedSent=") {
		t.Fatalf("missing order or keyed routing report:\n%s", body)
	}
}

// parseMergerReport extracts released and combined counts from a merger DONE
// line ("DONE released=N ordered=B combined=M").
func parseMergerReport(t *testing.T, report string) (released, combined uint64) {
	t.Helper()
	for _, line := range strings.Split(report, "\n") {
		if !strings.Contains(line, "released=") {
			continue
		}
		for _, field := range strings.Fields(line) {
			if v, ok := strings.CutPrefix(field, "released="); ok {
				fmt.Sscanf(v, "%d", &released)
			}
			if v, ok := strings.CutPrefix(field, "combined="); ok {
				fmt.Sscanf(v, "%d", &combined)
			}
		}
		return released, combined
	}
	t.Fatalf("no merger DONE line in report:\n%s", report)
	return 0, 0
}
