package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"runtime"
	"sync/atomic"
	"time"

	"streambalance/internal/core"
	"streambalance/internal/dataflow"
	"streambalance/internal/metrics"
	rt "streambalance/internal/runtime"
	"streambalance/internal/schedule"
	"streambalance/internal/transport"
)

// The layer probes drive each layer's exported constructors directly, with
// nothing else in the process running, at GOMAXPROCS=1. Each reports the
// fastest of probeReps repetitions: interference on this kind of host only
// ever adds time, so the minimum is the estimate of the layer's own cost.
const probeReps = 5

// probeFunc runs n operations and returns how long the timed part took.
type probeFunc func(n int) (time.Duration, error)

// nsPerOp sizes n so that one repetition lasts about target, then returns
// the lowest time per operation over probeReps repetitions and that n.
func nsPerOp(target time.Duration, f probeFunc) (float64, int, error) {
	n := 256
	for {
		d, err := f(n)
		if err != nil {
			return 0, 0, err
		}
		if d >= target/4 || n >= 1<<28 {
			if d > 0 {
				n = int(float64(n) * float64(target) / float64(d))
			}
			if n < 1 {
				n = 1
			}
			break
		}
		n *= 4
	}
	best := time.Duration(1<<63 - 1)
	for i := 0; i < probeReps; i++ {
		d, err := f(n)
		if err != nil {
			return 0, 0, err
		}
		if d < best {
			best = d
		}
	}
	return float64(best) / float64(n), n, nil
}

// allocsPerK is the allocation count of one f(n), per thousand operations.
func allocsPerK(n int, f probeFunc) (float64, error) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := f(n); err != nil {
		return 0, err
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(n) * 1000, nil
}

// prober holds what the probes share: the seeded payloads and keys.
type prober struct {
	pool   [][]byte
	big    [][]byte // 1 KiB payloads, the sender's zero-copy iovec path
	keys   []uint64 // non-zero, for the key routers
	target time.Duration
}

func newProber(seed int64, target time.Duration) *prober {
	rng := rand.New(rand.NewSource(seed))
	p := &prober{pool: payloadPool(seed), target: target}
	for i := 0; i < 64; i++ {
		b := make([]byte, 1024)
		rng.Read(b)
		p.big = append(p.big, b)
	}
	for i := 0; i < poolSize; i++ {
		p.keys = append(p.keys, 1+uint64(rng.Int63n(1<<20)))
	}
	return p
}

// batchOf fills dst with consecutive tuples starting at seq.
func batchOf(dst []transport.Tuple, seq uint64, pool [][]byte) []transport.Tuple {
	for i := range dst {
		dst[i] = transport.Tuple{Seq: seq, Payload: pool[seq%uint64(len(pool))]}
		seq++
	}
	return dst
}

func (p *prober) encode(n int) (time.Duration, error) {
	buf := make([]byte, 0, 4096)
	start := time.Now()
	for i := 0; i < n; i++ {
		var err error
		buf, err = transport.AppendFrame(buf[:0], transport.Tuple{Seq: uint64(i), Payload: p.pool[i&(poolSize-1)]})
		if err != nil {
			return 0, err
		}
	}
	return time.Since(start), nil
}

func (p *prober) decode(n int) (time.Duration, error) {
	var stream []byte
	for i := 0; i < poolSize; i++ {
		var err error
		stream, err = transport.AppendFrame(stream, transport.Tuple{Seq: uint64(i), Payload: p.pool[i]})
		if err != nil {
			return 0, err
		}
	}
	reader := bytes.NewReader(stream)
	var batch []transport.Tuple
	start := time.Now()
	for decoded := 0; decoded < n; {
		reader.Seek(0, io.SeekStart)
		rc := transport.NewReceiver(reader)
		for {
			tuples, ref, err := rc.ReceiveBatch(batch[:0], 0)
			if errors.Is(err, io.EOF) {
				break
			}
			if err != nil {
				return 0, err
			}
			decoded += len(tuples)
			ref.ReleaseN(len(tuples))
			batch = tuples
		}
	}
	return time.Since(start), nil
}

// drain receives until n tuples have arrived or the edge ends, releasing
// every payload reference, and reports on done.
func drain(rx transport.BatchReceiver, n int, done chan<- error) {
	var batch []transport.Tuple
	for got := 0; got < n; {
		tuples, ref, err := rx.ReceiveBatch(batch[:0], 0)
		if err != nil {
			if errors.Is(err, io.EOF) && n == untilEOF {
				err = nil
			}
			done <- err
			return
		}
		got += len(tuples)
		ref.ReleaseN(len(tuples))
		batch = tuples
	}
	done <- nil
}

// untilEOF makes drain run until the sender closes the edge.
const untilEOF = int(^uint(0) >> 1)

// loopback returns the two ends of a fresh loopback TCP connection.
func loopback() (client, server net.Conn, err error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, nil, err
	}
	defer ln.Close()
	type accepted struct {
		conn net.Conn
		err  error
	}
	ch := make(chan accepted, 1)
	go func() {
		conn, err := ln.Accept()
		ch <- accepted{conn, err}
	}()
	client, err = net.Dial("tcp", ln.Addr().String())
	if err != nil {
		return nil, nil, err
	}
	a := <-ch
	if a.err != nil {
		client.Close()
		return nil, nil, a.err
	}
	return client, a.conn, nil
}

// tcpPipe times n tuples from a Sender through loopback into a Receiver:
// one transport hop and nothing else. batch 1 uses the per-tuple Send.
func (p *prober) tcpPipe(pool [][]byte, batch int) probeFunc {
	return func(n int) (time.Duration, error) {
		client, server, err := loopback()
		if err != nil {
			return 0, err
		}
		defer client.Close()
		defer server.Close()
		sender, err := transport.NewSender(client)
		if err != nil {
			return 0, err
		}
		n -= n % batch
		if n == 0 {
			n = batch
		}
		done := make(chan error, 1)
		go drain(transport.NewReceiver(server), n, done)
		tuples := make([]transport.Tuple, batch)
		start := time.Now()
		for seq := 0; seq < n; seq += batch {
			batchOf(tuples, uint64(seq), pool)
			if batch == 1 {
				err = sender.Send(tuples[0])
			} else {
				err = sender.SendBatch(tuples)
			}
			if err != nil {
				return 0, err
			}
		}
		if err := <-done; err != nil {
			return 0, err
		}
		return time.Since(start), nil
	}
}

func (p *prober) inprocPipe(n int) (time.Duration, error) {
	tx, rx := transport.InprocPair(0)
	defer tx.Close()
	n -= n % batchSize
	if n == 0 {
		n = batchSize
	}
	done := make(chan error, 1)
	go drain(rx, n, done)
	tuples := make([]transport.Tuple, batchSize)
	start := time.Now()
	for seq := 0; seq < n; seq += batchSize {
		if err := tx.SendBatch(batchOf(tuples, uint64(seq), p.pool)); err != nil {
			return 0, err
		}
	}
	if err := <-done; err != nil {
		return 0, err
	}
	return time.Since(start), nil
}

func wrrNext(conns int) probeFunc {
	return func(n int) (time.Duration, error) {
		w, err := schedule.NewWRR(conns)
		if err != nil {
			return 0, err
		}
		// Uneven weights summing to the balancer's 1000 units, so the
		// smooth-WRR bookkeeping does real work.
		weights := core.EvenWeights(conns, core.DefaultUnits)
		for j := 0; j+1 < conns; j += 2 {
			d := weights[j] / 2
			weights[j] -= d
			weights[j+1] += d
		}
		if err := w.SetWeights(weights); err != nil {
			return 0, err
		}
		sum := 0
		start := time.Now()
		for i := 0; i < n; i++ {
			sum += w.Next()
		}
		d := time.Since(start)
		spinSink += uint64(sum)
		return d, nil
	}
}

func (p *prober) route(r schedule.KeyRouter) probeFunc {
	return func(n int) (time.Duration, error) {
		sum := 0
		start := time.Now()
		for i := 0; i < n; i++ {
			sum += r.Route(p.keys[i&(poolSize-1)])
		}
		d := time.Since(start)
		spinSink += uint64(sum)
		return d, nil
	}
}

// rebalance times Observe on every connection plus one Rebalance, with
// blocking rates that keep moving so the solver never sees a fixed point.
func rebalance(conns int, seed int64) probeFunc {
	return func(n int) (time.Duration, error) {
		b, err := core.NewBalancer(core.Config{Connections: conns, DecayEnabled: true})
		if err != nil {
			return 0, err
		}
		rng := rand.New(rand.NewSource(seed))
		start := time.Now()
		for i := 0; i < n; i++ {
			for j := 0; j < conns; j++ {
				rate := 0.05 * rng.Float64()
				if j%4 == i/8%4 {
					rate += 0.5 // the slow quarter moves every 8 rounds
				}
				if err := b.Observe(j, rate); err != nil {
					return 0, err
				}
			}
			if _, err := b.Rebalance(); err != nil {
				return 0, err
			}
		}
		return time.Since(start), nil
	}
}

// splitter times NewSplitter's send loop over four in-process edges that the
// bench drains: scheduling, staging and flushing, with no worker behind it.
func (p *prober) splitter(keyed bool) probeFunc {
	return func(n int) (time.Duration, error) {
		const conns = 4
		senders := make([]transport.BatchSender, conns)
		done := make(chan error, conns)
		for i := range senders {
			tx, rx := transport.InprocPair(0)
			senders[i] = tx
			go drain(rx, untilEOF, done)
		}
		cfg := rt.SplitterConfig{Senders: senders, BatchSize: batchSize}
		total := uint64(n)
		if keyed {
			cfg.KeyedSource = func(seq uint64) (uint64, []byte, bool) {
				return p.keys[seq&(poolSize-1)], p.pool[seq&(poolSize-1)], seq < total
			}
		} else {
			cfg.Source = func(seq uint64) ([]byte, bool) {
				return p.pool[seq&(poolSize-1)], seq < total
			}
		}
		sp, err := rt.NewSplitter(cfg)
		if err != nil {
			return 0, err
		}
		start := time.Now()
		sp.Start()
		err = sp.Wait() // closes the senders, which ends the drains
		for range senders {
			if derr := <-done; derr != nil && err == nil {
				err = derr
			}
		}
		return time.Since(start), err
	}
}

// mergerIngest times NewMerger over four attached in-process edges fed by one
// goroutine. lag 0 feeds in sequence order; a positive lag keeps connections
// 1..3 that many batches ahead of connection 0, so their reorder queues stay
// three-quarters full and every release waits on the straggler.
func (p *prober) mergerIngest(lag int) probeFunc {
	return func(n int) (time.Duration, error) {
		const conns = 4
		round := conns * batchSize
		rounds := n / round // n is in the hundred thousands; the remainder is noise
		if rounds == 0 {
			rounds = 1
		}
		var released atomic.Uint64
		m, err := rt.NewMerger(conns, 0, func(transport.Tuple, int) { released.Add(1) })
		if err != nil {
			return 0, err
		}
		txs := make([]*transport.InprocSender, conns)
		for i := range txs {
			tx, rx := transport.InprocPair(0)
			if err := m.AttachInproc(i, rx); err != nil {
				m.Close()
				return 0, err
			}
			txs[i] = tx
		}
		tuples := make([]transport.Tuple, batchSize)
		// send delivers connection c's share of round r: every conns-th
		// sequence number, ascending.
		send := func(c, r int) error {
			if r < 0 || r >= rounds {
				return nil
			}
			for i := range tuples {
				seq := uint64(r*round + i*conns + c)
				tuples[i] = transport.Tuple{Seq: seq, Payload: p.pool[seq&(poolSize-1)]}
			}
			return txs[c].SendBatch(tuples)
		}
		start := time.Now()
		m.Start()
		for r := -lag; r < rounds; r++ {
			for c := 1; c < conns; c++ {
				if err := send(c, r+lag); err != nil {
					m.Close()
					return 0, err
				}
			}
			if err := send(0, r); err != nil {
				m.Close()
				return 0, err
			}
		}
		for _, tx := range txs {
			tx.Close()
		}
		if err := m.Wait(); err != nil {
			return 0, err
		}
		d := time.Since(start)
		if got, want := released.Load(), uint64(rounds*round); got != want {
			return 0, fmt.Errorf("merger probe released %d of %d", got, want)
		}
		return d, nil
	}
}

// workerHop times one tuple's trip bench Sender -> Worker(Identity) -> a
// merger with that single connection: two TCP hops, the worker loop and an
// uncontended merge.
func (p *prober) workerHop(n int) (time.Duration, error) {
	var released atomic.Uint64
	m, err := rt.NewMerger(1, 0, func(transport.Tuple, int) { released.Add(1) })
	if err != nil {
		return 0, err
	}
	m.Start()
	w, err := rt.NewWorker(0, rt.Identity(), m.Addr())
	if err != nil {
		m.Close()
		return 0, err
	}
	w.Start()
	conn, err := net.Dial("tcp", w.Addr())
	if err != nil {
		w.Close()
		m.Close()
		return 0, err
	}
	sender, err := transport.NewSender(conn)
	if err != nil {
		conn.Close()
		w.Close()
		m.Close()
		return 0, err
	}
	n -= n % batchSize
	if n == 0 {
		n = batchSize
	}
	tuples := make([]transport.Tuple, batchSize)
	start := time.Now()
	for seq := 0; seq < n; seq += batchSize {
		if err := sender.SendBatch(batchOf(tuples, uint64(seq), p.pool)); err != nil {
			sender.Close()
			w.Close()
			m.Close()
			return 0, err
		}
	}
	sender.Close()
	if err := w.Wait(); err != nil {
		m.Close()
		return 0, err
	}
	if err := m.Wait(); err != nil {
		return 0, err
	}
	d := time.Since(start)
	if got := released.Load(); got != uint64(n) {
		return 0, fmt.Errorf("worker hop probe released %d of %d", got, n)
	}
	return d, nil
}

// newRegionMs is the median construction time of a 2-worker identity region
// that is then closed without running.
func newRegionMs(kind rt.TransportKind, reps int) (float64, error) {
	var ms []float64
	for i := 0; i < reps; i++ {
		cfg := rt.RegionConfig{
			Transport: kind,
			Operators: []rt.Operator{rt.Identity(), rt.Identity()},
			Source:    func(uint64) ([]byte, bool) { return nil, false },
			BatchSize: batchSize,
		}
		start := time.Now()
		r, err := rt.NewRegion(cfg)
		d := time.Since(start)
		if err != nil {
			return 0, err
		}
		r.Close()
		ms = append(ms, float64(d)/1e6)
	}
	return median(ms), nil
}

// chain2 times n tuples through dataflow.RunChain over two in-process
// identity regions.
func (p *prober) chain2(n int) (time.Duration, error) {
	total := uint64(n)
	var released uint64
	stage := func() rt.RegionConfig {
		return rt.RegionConfig{
			Transport: rt.TransportInproc,
			Operators: []rt.Operator{rt.Identity(), rt.Identity()},
			BatchSize: batchSize,
		}
	}
	first, last := stage(), stage()
	first.Source = func(seq uint64) ([]byte, bool) { return p.pool[seq&(poolSize-1)], seq < total }
	last.Sink = func(transport.Tuple, int) { released++ }
	res, err := dataflow.RunChain([]rt.RegionConfig{first, last}, dataflow.ChainOptions{})
	if err != nil {
		return 0, err
	}
	if released != total {
		return 0, fmt.Errorf("chain probe released %d of %d", released, total)
	}
	return res.Elapsed, nil
}

func counterInc(n int) (time.Duration, error) {
	c := metrics.New().Counter("bench_probe_total", "Probe counter.")
	start := time.Now()
	for i := 0; i < n; i++ {
		c.Inc()
	}
	return time.Since(start), nil
}

// runProbes measures every workload-independent layer row into m.
func runProbes(seed int64, target time.Duration, m map[string]metric) error {
	setProcs(1)
	p := newProber(seed, target)
	pkg, err := schedule.NewPKGRouter(16)
	if err != nil {
		return err
	}
	dch, err := schedule.NewDChoicesRouter(16, 0, 0)
	if err != nil {
		return err
	}
	rows := []struct {
		name   string
		unit   string
		scale  float64 // ns per op -> unit
		f      probeFunc
		allocs string // also report allocations per 1000 ops under this name
	}{
		{"transport.encode_ns_per_tuple", "ns", 1, p.encode, ""},
		{"transport.decode_ns_per_tuple", "ns", 1, p.decode, ""},
		{"transport.tcp_pipe_ns_per_tuple", "ns", 1, p.tcpPipe(p.pool, batchSize), "transport.tcp_pipe_allocs_per_ktuple"},
		{"transport.tcp_pipe_1k_ns_per_tuple", "ns", 1, p.tcpPipe(p.big, batchSize), ""},
		{"transport.tcp_send1_ns_per_tuple", "ns", 1, p.tcpPipe(p.pool, 1), ""},
		{"transport.inproc_pipe_ns_per_tuple", "ns", 1, p.inprocPipe, "transport.inproc_pipe_allocs_per_ktuple"},
		{"schedule.wrr_next_ns", "ns", 1, wrrNext(4), ""},
		{"schedule.wrr_next_ns_n64", "ns", 1, wrrNext(64), ""},
		{"schedule.pkg_route_ns", "ns", 1, p.route(pkg), ""},
		{"schedule.dchoices_route_ns", "ns", 1, p.route(dch), ""},
		{"core.rebalance_us_n4", "us", 1e-3, rebalance(4, seed), ""},
		{"core.rebalance_us_n64", "us", 1e-3, rebalance(64, seed), ""},
		{"runtime.splitter_ns_per_tuple", "ns", 1, p.splitter(false), ""},
		{"runtime.splitter_keyed_ns_per_tuple", "ns", 1, p.splitter(true), ""},
		{"runtime.merger_ingest_ns_per_tuple", "ns", 1, p.mergerIngest(0), ""},
		{"runtime.merger_ingest_skew_ns_per_tuple", "ns", 1, p.mergerIngest(24), ""},
		{"runtime.worker_hop_ns_per_tuple", "ns", 1, p.workerHop, ""},
		{"dataflow.chain2_ns_per_tuple", "ns", 1, p.chain2, ""},
		{"metrics.counter_inc_ns", "ns", 1, counterInc, ""},
	}
	for _, row := range rows {
		ns, n, err := nsPerOp(p.target, row.f)
		if err != nil {
			return fmt.Errorf("probe %s: %w", row.name, err)
		}
		m[row.name] = metric{ns * row.scale, row.unit}
		if row.allocs != "" {
			a, err := allocsPerK(n, row.f)
			if err != nil {
				return fmt.Errorf("probe %s: %w", row.allocs, err)
			}
			m[row.allocs] = metric{a, "count"}
		}
	}
	for kind, name := range map[rt.TransportKind]string{
		rt.TransportTCP:    "runtime.new_region_ms_tcp",
		rt.TransportInproc: "runtime.new_region_ms_inproc",
	} {
		ms, err := newRegionMs(kind, 9)
		if err != nil {
			return fmt.Errorf("probe %s: %w", name, err)
		}
		m[name] = metric{ms, "ms"}
	}
	return nil
}
