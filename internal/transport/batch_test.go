package transport

import (
	"bytes"
	"fmt"
	"math/rand"
	"net"
	"testing"
	"time"

	"streambalance/internal/chaos"
)

// receiveAll drains count tuples from conn on a goroutine and reports them.
func receiveAll(conn net.Conn, count int) (<-chan []Tuple, <-chan error) {
	out := make(chan []Tuple, 1)
	errCh := make(chan error, 1)
	go func() {
		rc := NewReceiver(conn)
		got := make([]Tuple, 0, count)
		for len(got) < count {
			tp, err := recvOne(rc)
			if err != nil {
				errCh <- err
				return
			}
			got = append(got, tp)
		}
		out <- got
	}()
	return out, errCh
}

func TestSendBatchRoundTrip(t *testing.T) {
	client, server := tcpPair(t)
	sender, err := NewSender(client)
	if err != nil {
		t.Fatal(err)
	}
	// Mixed payload sizes straddling the zero-copy threshold, including
	// empty payloads and ones exactly at the boundary. Forty rounds copy
	// about 48 KiB of frames, so the frame buffer outgrows frameBufCap after
	// zero-copy payloads have cut it onto the write queue.
	sizes := []int{0, 1, 100, zeroCopyThreshold - 1, zeroCopyThreshold, zeroCopyThreshold + 1, 8 << 10}
	var ts []Tuple
	seq := uint64(0)
	for round := 0; round < 40; round++ {
		for _, sz := range sizes {
			p := bytes.Repeat([]byte{byte(seq)}, sz)
			ts = append(ts, Tuple{Seq: seq, Payload: p})
			seq++
		}
	}
	out, errCh := receiveAll(server, len(ts))
	if err := sender.SendBatch(ts); err != nil {
		t.Fatal(err)
	}
	select {
	case got := <-out:
		for i, tp := range got {
			if tp.Seq != ts[i].Seq || !bytes.Equal(tp.Payload, ts[i].Payload) {
				t.Fatalf("tuple %d corrupted: seq %d->%d, %d->%d payload bytes",
					i, ts[i].Seq, tp.Seq, len(ts[i].Payload), len(tp.Payload))
			}
		}
	case err := <-errCh:
		t.Fatalf("receive: %v", err)
	}
	if sender.Sent() != int64(len(ts)) {
		t.Fatalf("Sent()=%d, want %d", sender.Sent(), len(ts))
	}
	if sender.Flushes() != 1 {
		t.Fatalf("Flushes()=%d, want 1", sender.Flushes())
	}
}

func TestBatchedAndSingleSendsInterleave(t *testing.T) {
	// Batched frames are plain concatenated frames: a receiver must not be
	// able to tell Send from SendBatch from the staging underneath them
	// (queue/flush) on one connection.
	client, server := tcpPair(t)
	sender, err := NewSender(client)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(42))
	const n = 3000
	out, errCh := receiveAll(server, n)
	seq := uint64(0)
	for seq < n {
		switch rng.Intn(3) {
		case 0:
			if err := sender.Send(Tuple{Seq: seq, Payload: []byte("single")}); err != nil {
				t.Fatal(err)
			}
			seq++
		case 1:
			k := 1 + rng.Intn(32)
			ts := make([]Tuple, 0, k)
			for i := 0; i < k && seq < n; i++ {
				ts = append(ts, Tuple{Seq: seq, Payload: bytes.Repeat([]byte("b"), rng.Intn(2*zeroCopyThreshold))})
				seq++
			}
			if err := sender.SendBatch(ts); err != nil {
				t.Fatal(err)
			}
		default:
			k := 1 + rng.Intn(16)
			for i := 0; i < k && seq < n; i++ {
				if err := sender.queue(Tuple{Seq: seq, Payload: []byte("queued")}); err != nil {
					t.Fatal(err)
				}
				seq++
			}
			if err := sender.flush(); err != nil {
				t.Fatal(err)
			}
		}
	}
	select {
	case got := <-out:
		for i, tp := range got {
			if tp.Seq != uint64(i) {
				t.Fatalf("tuple %d carried seq %d", i, tp.Seq)
			}
		}
	case err := <-errCh:
		t.Fatalf("receive: %v", err)
	}
	if sender.Sent() != n {
		t.Fatalf("Sent()=%d, want %d", sender.Sent(), n)
	}
}

func TestSendBatchOversizedIsAtomic(t *testing.T) {
	client, server := tcpPair(t)
	sender, err := NewSender(client)
	if err != nil {
		t.Fatal(err)
	}
	bad := []Tuple{
		{Seq: 0, Payload: []byte("fine")},
		{Seq: 1, Payload: make([]byte, MaxFrameSize)}, // frame exceeds cap
	}
	if err := sender.SendBatch(bad); err == nil {
		t.Fatal("oversized batch accepted")
	}
	if sender.queued != 0 || len(sender.wq) != 0 {
		t.Fatalf("failed batch left %d tuples staged", sender.queued)
	}
	// The connection must be clean: nothing from the failed batch leaked.
	out, errCh := receiveAll(server, 1)
	if err := sender.Send(Tuple{Seq: 9, Payload: []byte("after")}); err != nil {
		t.Fatal(err)
	}
	select {
	case got := <-out:
		if got[0].Seq != 9 || !bytes.Equal(got[0].Payload, []byte("after")) {
			t.Fatalf("got %+v after failed batch", got[0])
		}
	case err := <-errCh:
		t.Fatalf("receive: %v", err)
	}
}

// TestBatchPartialWriteBoundaries is the writeAll/flush partial-write
// regression test: a chaos proxy forwards the stream in tiny chunks, so the
// kernel reports partial writes at arbitrary byte boundaries — mid-header,
// mid-payload, across batch buffers — and the write cursor must resume
// exactly where each write stopped.
func TestBatchPartialWriteBoundaries(t *testing.T) {
	for _, chunk := range []int{1, 3, 7, 64} {
		t.Run(fmt.Sprintf("chunk=%d", chunk), func(t *testing.T) {
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer ln.Close()
			proxy, err := chaos.NewProxy(ln.Addr().String())
			if err != nil {
				t.Fatal(err)
			}
			defer proxy.Close()
			proxy.SetChunk(chunk)

			accepted := make(chan net.Conn, 1)
			go func() {
				conn, err := ln.Accept()
				if err == nil {
					accepted <- conn
				}
			}()
			client, err := net.Dial("tcp", proxy.Addr())
			if err != nil {
				t.Fatal(err)
			}
			defer client.Close()
			tc := client.(*net.TCPConn)
			// A tiny send buffer forces EAGAIN mid-batch, so the cursor
			// resumes across poller parks as well as short writes.
			if err := tc.SetWriteBuffer(2 << 10); err != nil {
				t.Fatal(err)
			}
			server := <-accepted
			defer server.Close()

			sender, err := NewSender(client)
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(int64(chunk)))
			var ts []Tuple
			for seq := uint64(0); seq < 200; seq++ {
				p := make([]byte, rng.Intn(3*zeroCopyThreshold/2))
				rng.Read(p)
				ts = append(ts, Tuple{Seq: seq, Payload: p})
			}
			out, errCh := receiveAll(server, len(ts))
			var before time.Duration
			for i := 0; i < len(ts); i += 16 {
				end := i + 16
				if end > len(ts) {
					end = len(ts)
				}
				if err := sender.SendBatch(ts[i:end]); err != nil {
					t.Fatal(err)
				}
				// Blocking accounting must be monotone no matter where the
				// kernel split the writes.
				if now := sender.TotalBlocking(); now < before {
					t.Fatalf("cumulative blocking went backwards: %v -> %v", before, now)
				} else {
					before = now
				}
			}
			select {
			case got := <-out:
				for i, tp := range got {
					if tp.Seq != ts[i].Seq || !bytes.Equal(tp.Payload, ts[i].Payload) {
						t.Fatalf("tuple %d corrupted through chunked proxy", i)
					}
				}
			case err := <-errCh:
				t.Fatalf("receive: %v", err)
			}
		})
	}
}

// TestBatchBlockingAttribution pins the Section 3 semantics under batching:
// a batch flush that fills the socket buffer blocks, and the blocked time
// lands on that connection's counter — not on a healthy connection sending
// concurrently from the same process.
func TestBatchBlockingAttribution(t *testing.T) {
	stalledC, stalledS := tcpPair(t)
	// The healthy connection keeps its default (large) socket buffers: its
	// whole workload fits in the kernel buffer, so with its reader draining
	// it must never elect to block. tcpPair's deliberately tiny buffers
	// would add real TCP flow-control stalls and muddy the attribution.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	acceptCh := make(chan net.Conn, 1)
	go func() {
		conn, err := ln.Accept()
		if err == nil {
			acceptCh <- conn
		}
	}()
	healthyC, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer healthyC.Close()
	healthyS := <-acceptCh
	defer healthyS.Close()

	stalled, err := NewSender(stalledC)
	if err != nil {
		t.Fatal(err)
	}
	healthy, err := NewSender(healthyC)
	if err != nil {
		t.Fatal(err)
	}

	// The healthy connection is drained continuously; the stalled one is
	// not read until later.
	const n = 64
	payload := bytes.Repeat([]byte("h"), 1024)
	hOut, hErr := receiveAll(healthyS, n)

	batch := make([]Tuple, 8)
	seq := uint64(0)
	for i := 0; i < n/len(batch); i++ {
		for j := range batch {
			batch[j] = Tuple{Seq: seq, Payload: payload}
			seq++
		}
		if err := healthy.SendBatch(batch); err != nil {
			t.Fatal(err)
		}
	}
	select {
	case <-hOut:
	case err := <-hErr:
		t.Fatalf("healthy receive: %v", err)
	}

	// Now stall: batches into a connection nobody reads, until a flush
	// parks. Socket buffers are 4 KiB each way, so a few 8 KiB batches in.
	sendDone := make(chan error, 1)
	go func() {
		s := uint64(0)
		b := make([]Tuple, 8)
		for i := 0; i < 32; i++ {
			for j := range b {
				b[j] = Tuple{Seq: s, Payload: payload}
				s++
			}
			if err := stalled.SendBatch(b); err != nil {
				sendDone <- err
				return
			}
		}
		sendDone <- nil
	}()

	deadline := time.After(5 * time.Second)
	for stalled.BlockEvents() == 0 {
		select {
		case <-deadline:
			t.Fatal("stalled sender never elected to block")
		case err := <-sendDone:
			t.Fatalf("stalled sender finished without blocking: %v", err)
		case <-time.After(time.Millisecond):
		}
	}
	// Let it sit blocked long enough to accrue measurable time, then
	// unblock by draining.
	time.Sleep(50 * time.Millisecond)
	sOut, sErr := receiveAll(stalledS, 32*8)
	if err := <-sendDone; err != nil {
		t.Fatal(err)
	}
	select {
	case <-sOut:
	case err := <-sErr:
		t.Fatalf("stalled receive: %v", err)
	}

	if got := stalled.TotalBlocking(); got < 40*time.Millisecond {
		t.Fatalf("stalled connection accrued only %v blocking", got)
	}
	// The healthy connection was drained throughout: transient scheduler
	// stalls aside, the deliberate 50ms+ park must not leak onto it.
	if got := healthy.TotalBlocking(); got > 10*time.Millisecond {
		t.Fatalf("healthy connection accrued %v blocking (misattribution)", got)
	}
}
