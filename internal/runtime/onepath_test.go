package runtime

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"streambalance/internal/metrics"
	"streambalance/internal/testutil"
	"streambalance/internal/transport"
)

// These tests pin the properties that make "a batch of one through the
// batched code" a replacement for the old per-tuple fork, and that make one
// worker loop correct on both transports.

// stallEdges builds a two-connection splitter over the given transport whose
// connection 1 stops draining after its first receive until stall() returns,
// and returns it with a wait for both drains. Neither drain acks, so no
// connection is bounded; on TCP the first receive answers the splitter's
// ack hello, which the splitter reads before it sends.
func stallEdges(t *testing.T, kind TransportKind, cfg SplitterConfig, stall func()) (*Splitter, func()) {
	t.Helper()
	var wg sync.WaitGroup
	drain := func(conn int, rx transport.BatchReceiver) {
		defer wg.Done()
		var buf []transport.Tuple
		for first := true; ; first = false {
			var ref *transport.BlockRef
			var err error
			buf, ref, err = rx.ReceiveBatch(buf, 0)
			if err != nil {
				return
			}
			ref.ReleaseN(len(buf))
			if first && conn == 1 {
				stall()
			}
		}
	}
	wg.Add(2)
	if kind == TransportInproc {
		for conn := 0; conn < 2; conn++ {
			tx, rx := transport.InprocPair(8)
			cfg.Senders = append(cfg.Senders, tx)
			go drain(conn, rx)
		}
	} else {
		for conn := 0; conn < 2; conn++ {
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			cfg.WorkerAddrs = append(cfg.WorkerAddrs, ln.Addr().String())
			go func(conn int) {
				c, err := ln.Accept()
				ln.Close()
				if err != nil {
					wg.Done()
					return
				}
				defer c.Close()
				drain(conn, transport.NewReceiver(c))
			}(conn)
		}
	}
	sp, err := NewSplitter(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return sp, wg.Wait
}

// TestBatchOfOneKeepsPerTupleSignal: with BatchSize <= 1 every tuple is its
// own flush — its own Section 3 elect-to-block episode — on both transports,
// and a peer that stops draining drives the blocking counters up on its own
// connection and not on its neighbour's.
func TestBatchOfOneKeepsPerTupleSignal(t *testing.T) {
	const stallFor = 40 * time.Millisecond
	for _, kind := range []TransportKind{TransportTCP, TransportInproc} {
		for _, batch := range []int{0, 1} {
			t.Run(fmt.Sprintf("%s/batch=%d", kind, batch), func(t *testing.T) {
				var sp *Splitter
				ready := make(chan struct{})
				stall := func() {
					<-ready
					// Hold off until the splitter has elected to block on
					// this connection, then keep it parked a while longer.
					for sp.Senders()[1].BlockEvents() == 0 {
						time.Sleep(time.Millisecond)
					}
					time.Sleep(stallFor)
				}
				sp, wait := stallEdges(t, kind, SplitterConfig{
					Source:    ConstantSource(make([]byte, 1024), 600),
					BatchSize: batch,
				}, stall)
				close(ready)
				sp.Start()
				if err := sp.Wait(); err != nil {
					t.Fatal(err)
				}
				wait()
				senders := sp.Senders()
				for i, s := range senders {
					if s.Sent() != 300 {
						t.Errorf("conn %d sent %d tuples, want its round-robin half of 600", i, s.Sent())
					}
					if s.Flushes() != s.Sent() {
						t.Errorf("conn %d: flushes=%d sent=%d, want equal (one flush per tuple)",
							i, s.Flushes(), s.Sent())
					}
				}
				stalled, healthy := senders[1], senders[0]
				if stalled.BlockEvents() == 0 || stalled.TotalBlocking() < stallFor/2 {
					t.Errorf("stalled conn: %d block events, %v blocked; want the %v stall accounted",
						stalled.BlockEvents(), stalled.TotalBlocking(), stallFor)
				}
				if healthy.TotalBlocking() > stalled.TotalBlocking()/4 {
					t.Errorf("healthy conn blocked %v against the stalled conn's %v: the stall leaked across connections",
						healthy.TotalBlocking(), stalled.TotalBlocking())
				}
			})
		}
	}
}

// refSource is a BatchReceiver serving a prepared keyed stream in batches of
// at most max tuples. A pooled source serves real ReceiveBatch output —
// payloads aliasing a pooled block — decoded with one tuple more than it
// serves, so the test keeps one reference on each batch's BlockRef: the count
// cannot reach zero (and the ref be recycled and reused) behind the test's
// back, and "the loop consumed each of its references exactly once" reads as
// Refs()==1. Otherwise the payloads are GC-owned and the ref is nil, as on
// every edge that feeds an in-proc output.
type refSource struct {
	t      *testing.T
	pooled bool
	next   uint64
	end    uint64
	refs   []*transport.BlockRef
}

// capRx makes every pass of a receiver at most max tuples long, whatever
// max its caller asks for: the worker loop asks for none.
type capRx struct {
	transport.BatchReceiver
	max int
}

func (c capRx) ReceiveBatch(dst []transport.Tuple, _ int) ([]transport.Tuple, *transport.BlockRef, error) {
	return c.BatchReceiver.ReceiveBatch(dst, c.max)
}

func (s *refSource) ReceiveBatch(dst []transport.Tuple, max int) ([]transport.Tuple, *transport.BlockRef, error) {
	if s.next == s.end {
		return dst[:0], nil, io.EOF
	}
	k := min(uint64(max), s.end-s.next)
	ts := make([]transport.Tuple, k+1) // k served + 1 held back
	for i := range ts {
		seq := s.next + uint64(i)
		ts[i] = transport.Tuple{Seq: seq, Key: 1 + seq%3, Payload: []byte{byte(seq), 0, 0, 0, 0, 0, 0, 0}}
	}
	s.next += k
	if !s.pooled {
		return append(dst[:0], ts[:k]...), nil, nil
	}
	batch, ref := decodePooled(s.t, ts)
	s.refs = append(s.refs, ref)
	return append(dst[:0], batch[:k]...), ref, nil
}

func (s *refSource) Ack(uint64) error { return nil }

func (s *refSource) Close() error { return nil }

// TestWorkLoopOwnershipAcrossTransports runs the one worker loop over a TCP
// and an in-process output edge, with and without a combiner, at receive
// batches of 1 and 64. The TCP arm's input is pooled: every input BlockRef
// must end with exactly the test's own reference left — the loop released
// each of the others once, absorbed tuples before the forward and the rest
// after it. The in-proc arm's input is GC-owned, as a pooled block never
// crosses an in-proc edge, and its downstream receives no ref. What arrives
// downstream must be byte-identical on both transports.
func TestWorkLoopOwnershipAcrossTransports(t *testing.T) {
	const total = 200
	run := func(t *testing.T, kind TransportKind, combine bool, recvBatch int) []transport.Tuple {
		var tx transport.BatchSender
		var rx transport.BatchReceiver
		if kind == TransportInproc {
			tx, rx = transport.InprocPair(16)
		} else {
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer ln.Close()
			client, err := net.Dial("tcp", ln.Addr().String())
			if err != nil {
				t.Fatal(err)
			}
			server, err := ln.Accept()
			if err != nil {
				t.Fatal(err)
			}
			defer server.Close()
			if tx, err = transport.NewSender(client); err != nil {
				t.Fatal(err)
			}
			rx = transport.NewReceiver(server)
		}
		var got []transport.Tuple
		consumed := make(chan error, 1)
		go func() {
			var buf []transport.Tuple
			for {
				var ref *transport.BlockRef
				var err error
				buf, ref, err = rx.ReceiveBatch(buf, 7)
				if kind == TransportInproc && ref != nil {
					err = errors.New("in-proc ReceiveBatch returned a non-nil ref")
				}
				if err != nil {
					if errors.Is(err, io.EOF) {
						err = nil
					}
					consumed <- err
					return
				}
				for _, tp := range buf {
					tp.Payload = append([]byte(nil), tp.Payload...)
					tp.Absorbed = append([]byte(nil), tp.Absorbed...)
					got = append(got, tp)
				}
				ref.ReleaseN(len(buf))
			}
		}()
		src := &refSource{t: t, pooled: kind == TransportTCP, end: total}
		p := &pe{operator: Identity(), done: make(chan struct{})}
		if combine {
			p.SetCombiner(SumCombiner())
		}
		if err := p.serve(capRx{src, recvBatch}, tx); err != nil {
			t.Fatalf("worker loop: %v", err)
		}
		if err := <-consumed; err != nil {
			t.Fatalf("downstream: %v", err)
		}
		for i, ref := range src.refs {
			if n := ref.Refs(); n != 1 {
				t.Errorf("input batch %d: %d references outstanding, want only the test's own", i, n)
			}
			ref.Release()
		}
		absorbed := 0
		for _, tp := range got {
			absorbed += tp.AbsorbedCount()
		}
		if len(got)+absorbed != total {
			t.Errorf("%d carriers + %d absorbed seqs, want %d tuples accounted", len(got), absorbed, total)
		}
		if hits := int(p.CombinerHits()); hits != absorbed {
			t.Errorf("CombinerHits %d, absorbed seqs downstream %d", hits, absorbed)
		}
		if (absorbed > 0) != (combine && recvBatch > 1) {
			t.Errorf("absorbed %d seqs with combine=%v recvBatch=%d", absorbed, combine, recvBatch)
		}
		return got
	}
	for _, combine := range []bool{false, true} {
		for _, recvBatch := range []int{1, 64} {
			t.Run(fmt.Sprintf("combine=%v/recv=%d", combine, recvBatch), func(t *testing.T) {
				tcp := run(t, TransportTCP, combine, recvBatch)
				inproc := run(t, TransportInproc, combine, recvBatch)
				if len(tcp) != len(inproc) {
					t.Fatalf("tcp delivered %d tuples, inproc %d", len(tcp), len(inproc))
				}
				for i := range tcp {
					a, b := tcp[i], inproc[i]
					if a.Seq != b.Seq || a.Key != b.Key || a.Solo != b.Solo ||
						!bytes.Equal(a.Payload, b.Payload) || !bytes.Equal(a.Absorbed, b.Absorbed) {
						t.Fatalf("tuple %d differs across transports: tcp %+v, inproc %+v", i, a, b)
					}
				}
			})
		}
	}
}

// TestWorkerCloseMidStreamIsClean closes a worker while it is serving, on
// both transports and in both places the loop can be parked — an idle input,
// and a forward the merger is not draining. Close is not a failure: Wait
// returns nil and nothing is left running.
func TestWorkerCloseMidStreamIsClean(t *testing.T) {
	for _, kind := range []TransportKind{TransportTCP, TransportInproc} {
		for _, parked := range []string{"receive", "forward"} {
			t.Run(fmt.Sprintf("%s/parked-in-%s", kind, parked), func(t *testing.T) {
				gate := make(chan struct{}) // closed to let the sink drain
				sunk := make(chan struct{}, 1)
				m, err := NewMerger(1, 4, func(transport.Tuple, int) {
					select {
					case sunk <- struct{}{}:
					default:
					}
					if parked == "forward" {
						<-gate
					}
				})
				if err != nil {
					t.Fatal(err)
				}
				m.Start()

				var w regionWorker
				var feed transport.BatchSender
				if kind == TransportInproc {
					inTx, inRx := transport.InprocPair(4)
					out, err := m.forwardEdge(0)
					if err != nil {
						t.Fatal(err)
					}
					w, feed = newInprocWorker(0, Identity(), inRx, out, Timeouts{}.norm()), inTx
				} else {
					tw, err := NewWorker(0, Identity(), m.Addr())
					if err != nil {
						t.Fatal(err)
					}
					w = tw
					conn, err := net.Dial("tcp", tw.Addr())
					if err != nil {
						t.Fatal(err)
					}
					conn.(*net.TCPConn).SetWriteBuffer(4 << 10)
					if feed, err = transport.NewSender(conn); err != nil {
						t.Fatal(err)
					}
				}
				w.Start()

				// The feeder keeps the worker supplied until its edge dies
				// under it; with a gated sink that parks the worker's forward.
				fed := make(chan struct{})
				go func() {
					defer close(fed)
					payload := make([]byte, 2048)
					for seq := uint64(0); parked == "forward" || seq < 8; seq++ {
						if feed.Send(transport.Tuple{Seq: seq, Payload: payload}) != nil {
							return
						}
					}
				}()
				<-sunk
				if parked == "forward" {
					// Long enough for every buffer between feeder and sink to
					// fill and the forward to park.
					time.Sleep(50 * time.Millisecond)
				} else {
					<-fed
					time.Sleep(10 * time.Millisecond)
				}

				// Close itself is bounded too: it must wake a parked forward,
				// not wait out the send-stall bound.
				done := make(chan error, 1)
				go func() {
					w.Close()
					done <- w.Wait()
				}()
				select {
				case err := <-done:
					if err != nil {
						t.Errorf("Wait after Close = %v, want nil", err)
					}
				case <-time.After(5 * time.Second):
					t.Fatal("worker did not close and exit within 5 s")
				}
				close(gate)
				feed.Close()
				<-fed
				m.Close()
				m.Wait()
				testutil.ExpectNoModuleGoroutines(t, 2*time.Second)
			})
		}
	}
}

// TestUnencodableOutputFailsOnBothTransports: an operator output no frame can
// carry — a payload one byte past the frame bound, absorbed seqs on an
// unkeyed tuple — fails the region on either transport, and the forward that
// carries it delivers nothing. The stream is one splitter round of n tuples
// to one worker, so the forward is the whole stream with the bad tuple last:
// an edge that sent the good prefix before failing would hand the merger an
// ingest batch, whether or not the abort let it reach the sink.
func TestUnencodableOutputFailsOnBothTransports(t *testing.T) {
	const n = 32
	for _, bad := range []struct {
		name string
		out  transport.Tuple
	}{
		{"oversized", transport.Tuple{Payload: make([]byte, transport.MaxFrameSize-7)}},
		{"absorbed-unkeyed", transport.Tuple{Absorbed: transport.AppendAbsorbed(nil, 1)}},
	} {
		for _, kind := range []TransportKind{TransportTCP, TransportInproc} {
			t.Run(fmt.Sprintf("%s/%s", kind, bad.name), func(t *testing.T) {
				sunk := 0 // the merge goroutine's; read after Run returns
				region, err := NewRegion(RegionConfig{
					Metrics:   NewRegionMetrics(metrics.New(), nil),
					Transport: kind,
					Operators: []Operator{OperatorFunc(func(tp transport.Tuple) transport.Tuple {
						if tp.Seq == n-1 {
							out := bad.out
							out.Seq = tp.Seq
							return out
						}
						return tp
					})},
					Source:    equivSource(n),
					BatchSize: n,
					Sink:      func(transport.Tuple, int) { sunk++ },
				})
				if err != nil {
					t.Fatal(err)
				}
				_, err = region.Run()
				if err == nil {
					t.Fatal("region released an unencodable tuple without error")
				}
				if bad.name == "oversized" && !errors.Is(err, transport.ErrFrameTooLarge) {
					t.Errorf("err = %v, want ErrFrameTooLarge", err)
				}
				if n := region.merger.mIngestBatch.Count(); sunk != 0 || n != 0 {
					t.Errorf("the failing forward reached the merger: %d ingest batches, %d tuples sunk", n, sunk)
				}
				testutil.ExpectNoModuleGoroutines(t, 2*time.Second)
			})
		}
	}
}
