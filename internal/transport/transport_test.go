package transport

import (
	"bytes"
	"errors"
	"io"
	"net"
	"testing"
	"testing/quick"
	"time"
)

func TestFrameRoundTrip(t *testing.T) {
	tests := []struct {
		name  string
		tuple Tuple
	}{
		{"empty payload", Tuple{Seq: 0}},
		{"small payload", Tuple{Seq: 42, Payload: []byte("hello")}},
		{"binary payload", Tuple{Seq: 1 << 60, Payload: []byte{0, 255, 1, 254}}},
		{"large payload", Tuple{Seq: 7, Payload: bytes.Repeat([]byte("x"), 100_000)}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			frame, err := AppendFrame(nil, tt.tuple)
			if err != nil {
				t.Fatal(err)
			}
			if len(frame) != FrameLen(tt.tuple) {
				t.Fatalf("frame length %d, want %d", len(frame), FrameLen(tt.tuple))
			}
			rc := NewReceiver(bytes.NewReader(frame))
			got, err := recvOne(rc)
			if err != nil {
				t.Fatal(err)
			}
			if got.Seq != tt.tuple.Seq || !bytes.Equal(got.Payload, tt.tuple.Payload) {
				t.Fatalf("round trip changed tuple: got seq=%d len=%d", got.Seq, len(got.Payload))
			}
		})
	}
}

func TestFrameRoundTripProperty(t *testing.T) {
	prop := func(seq uint64, payload []byte) bool {
		frame, err := AppendFrame(nil, Tuple{Seq: seq, Payload: payload})
		if err != nil {
			return false
		}
		got, err := recvOne(NewReceiver(bytes.NewReader(frame)))
		if err != nil {
			return false
		}
		return got.Seq == seq && bytes.Equal(got.Payload, payload)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestFrameStreamOfTuples(t *testing.T) {
	var stream []byte
	var err error
	for i := uint64(0); i < 100; i++ {
		stream, err = AppendFrame(stream, Tuple{Seq: i, Payload: []byte{byte(i)}})
		if err != nil {
			t.Fatal(err)
		}
	}
	rc := NewReceiver(bytes.NewReader(stream))
	for i := uint64(0); i < 100; i++ {
		got, err := recvOne(rc)
		if err != nil {
			t.Fatalf("tuple %d: %v", i, err)
		}
		if got.Seq != i || got.Payload[0] != byte(i) {
			t.Fatalf("tuple %d decoded as seq %d", i, got.Seq)
		}
	}
	if _, err := recvOne(rc); !errors.Is(err, io.EOF) {
		t.Fatalf("end of stream error = %v, want io.EOF", err)
	}
}

func TestFrameTooLarge(t *testing.T) {
	if _, err := AppendFrame(nil, Tuple{Payload: make([]byte, MaxFrameSize)}); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("err = %v, want ErrFrameTooLarge", err)
	}
}

func TestReceiveCorruptFrames(t *testing.T) {
	tests := []struct {
		name string
		data []byte
	}{
		{"truncated header", []byte{1, 2}},
		{"body too small", []byte{4, 0, 0, 0, 1, 2, 3, 4}},
		{"body too large", []byte{255, 255, 255, 255, 0, 0, 0, 0}},
		{"truncated payload", func() []byte {
			frame, _ := AppendFrame(nil, Tuple{Seq: 1, Payload: []byte("abcdef")})
			return frame[:len(frame)-3]
		}()},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := recvOne(NewReceiver(bytes.NewReader(tt.data))); err == nil {
				t.Fatal("corrupt frame accepted")
			}
		})
	}
}

// tcpPair returns a connected loopback TCP pair with a small send buffer, so
// blocking is easy to provoke. The receive buffer stays at 64 KiB: on
// loopback (MSS about 64 KiB) a smaller receive window leaves the sender
// waiting on the kernel's zero-window persist timer, seconds per test.
func tcpPair(t *testing.T) (*net.TCPConn, *net.TCPConn) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	type result struct {
		conn net.Conn
		err  error
	}
	accepted := make(chan result, 1)
	go func() {
		conn, err := ln.Accept()
		accepted <- result{conn, err}
	}()
	client, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	res := <-accepted
	if res.err != nil {
		t.Fatal(res.err)
	}
	c := client.(*net.TCPConn)
	s := res.conn.(*net.TCPConn)
	t.Cleanup(func() {
		c.Close()
		s.Close()
	})
	if err := c.SetWriteBuffer(4 << 10); err != nil {
		t.Fatal(err)
	}
	if err := s.SetReadBuffer(64 << 10); err != nil {
		t.Fatal(err)
	}
	return c, s
}

func TestSenderRequiresRawConn(t *testing.T) {
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	if _, err := NewSender(a); err == nil {
		t.Fatal("net.Pipe accepted: it has no raw descriptor")
	}
}

func TestSenderDeliversTuples(t *testing.T) {
	client, server := tcpPair(t)
	sender, err := NewSender(client)
	if err != nil {
		t.Fatal(err)
	}
	const n = 1000
	done := make(chan error, 1)
	var got []Tuple
	go func() {
		rc := NewReceiver(server)
		for i := 0; i < n; i++ {
			tp, err := recvOne(rc)
			if err != nil {
				done <- err
				return
			}
			got = append(got, tp)
		}
		done <- nil
	}()
	payload := bytes.Repeat([]byte("p"), 128)
	for i := uint64(0); i < n; i++ {
		if err := sender.Send(Tuple{Seq: i, Payload: payload}); err != nil {
			t.Fatal(err)
		}
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if sender.Sent() != n {
		t.Fatalf("Sent = %d, want %d", sender.Sent(), n)
	}
	for i, tp := range got {
		if tp.Seq != uint64(i) {
			t.Fatalf("tuple %d has seq %d: TCP reordered?", i, tp.Seq)
		}
	}
}

func TestSenderMeasuresBlocking(t *testing.T) {
	client, server := tcpPair(t)
	sender, err := NewSender(client)
	if err != nil {
		t.Fatal(err)
	}
	// A deliberately slow receiver: drain nothing for a while so the
	// sender's socket buffer fills and sends block.
	started := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		<-started
		time.Sleep(100 * time.Millisecond)
		io.Copy(io.Discard, server)
	}()

	payload := bytes.Repeat([]byte("q"), 8<<10)
	close(started)
	deadline := time.Now().Add(5 * time.Second)
	for sender.BlockEvents() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("sender never blocked despite a stalled receiver")
		}
		if err := sender.Send(Tuple{Seq: 1, Payload: payload}); err != nil {
			t.Fatal(err)
		}
	}
	if sender.TotalBlocking() <= 0 {
		t.Fatalf("cumulative blocking = %v, want positive", sender.TotalBlocking())
	}
	client.Close()
	<-done
}
