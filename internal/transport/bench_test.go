package transport

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"testing"
)

// benchPair returns a connected loopback pair with roomy buffers (the
// benchmarks measure send-path overhead, not back pressure) and a goroutine
// discarding everything the server side receives.
func benchPair(b *testing.B) *Sender {
	b.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	accepted := make(chan net.Conn, 1)
	go func() {
		conn, err := ln.Accept()
		if err == nil {
			accepted <- conn
		}
	}()
	client, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		b.Fatal(err)
	}
	server := <-accepted
	ln.Close()
	go io.Copy(io.Discard, server)
	b.Cleanup(func() {
		client.Close()
		server.Close()
	})
	sender, err := NewSender(client)
	if err != nil {
		b.Fatal(err)
	}
	return sender
}

// BenchmarkSenderSend is the batch of one: one frame staged, one flush, one
// write. The headline numbers are allocs/op (must be 0 in steady state —
// every allocation here perturbs the blocking signal the balancer reads) and
// tuples/s against BenchmarkSenderSendBatch.
func BenchmarkSenderSend(b *testing.B) {
	sender := benchPair(b)
	payload := bytes.Repeat([]byte("p"), 128)
	b.ReportAllocs()
	b.SetBytes(int64(FrameLen(Tuple{Payload: payload})))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := sender.Send(Tuple{Seq: uint64(i), Payload: payload}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "tuples/s")
}

func BenchmarkSenderSendBatch(b *testing.B) {
	for _, k := range []int{8, 32, 128} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			sender := benchPair(b)
			payload := bytes.Repeat([]byte("p"), 128)
			batch := make([]Tuple, k)
			b.ReportAllocs()
			b.SetBytes(int64(k * FrameLen(Tuple{Payload: payload})))
			b.ResetTimer()
			seq := uint64(0)
			for i := 0; i < b.N; i++ {
				for j := range batch {
					batch[j] = Tuple{Seq: seq, Payload: payload}
					seq++
				}
				if err := sender.SendBatch(batch); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.N*k)/b.Elapsed().Seconds(), "tuples/s")
		})
	}
}

// BenchmarkSenderSendBatchZeroCopy exercises the large-payload path where
// payloads ride as their own iovecs instead of being copied into the
// frame buffer.
func BenchmarkSenderSendBatchZeroCopy(b *testing.B) {
	const k = 32
	sender := benchPair(b)
	payload := bytes.Repeat([]byte("p"), 4<<10)
	batch := make([]Tuple, k)
	b.ReportAllocs()
	b.SetBytes(int64(k * FrameLen(Tuple{Payload: payload})))
	b.ResetTimer()
	seq := uint64(0)
	for i := 0; i < b.N; i++ {
		for j := range batch {
			batch[j] = Tuple{Seq: seq, Payload: payload}
			seq++
		}
		if err := sender.SendBatch(batch); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.N*k)/b.Elapsed().Seconds(), "tuples/s")
}

func BenchmarkAppendFrame(b *testing.B) {
	payload := bytes.Repeat([]byte("p"), 128)
	buf := make([]byte, 0, 4096)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		buf, err = AppendFrame(buf[:0], Tuple{Seq: uint64(i), Payload: payload})
		if err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAppendFrameHeader(b *testing.B) {
	payload := make([]byte, 4096)
	buf := make([]byte, 0, 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		buf, err = AppendFrameHeader(buf[:0], Tuple{Seq: uint64(i), Payload: payload})
		if err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkReceiverDecode(b *testing.B) {
	// Decode throughput over an in-memory stream of 128-byte-payload frames.
	payload := bytes.Repeat([]byte("p"), 128)
	const frames = 1024
	var stream []byte
	for i := 0; i < frames; i++ {
		var err error
		stream, err = AppendFrame(stream, Tuple{Seq: uint64(i), Payload: payload})
		if err != nil {
			b.Fatal(err)
		}
	}
	reader := bytes.NewReader(stream)
	b.ReportAllocs()
	b.SetBytes(int64(len(stream) / frames))
	b.ResetTimer()
	var rc *Receiver
	var batch []Tuple
	for i := 0; i < b.N; i++ {
		if i%frames == 0 {
			// Rewind and re-wrap; amortized over 1024 decodes.
			reader.Seek(0, io.SeekStart)
			rc = NewReceiver(reader)
		}
		tuples, ref, err := rc.ReceiveBatch(batch[:0], 1)
		if err != nil {
			b.Fatal(err)
		}
		ref.Release()
		batch = tuples
	}
}

// BenchmarkReceiverReceiveBatch is the multi-frame drain against the same
// stream BenchmarkReceiverDecode walks one frame at a time. The headline
// numbers are allocs/op (0 in steady state — payloads alias pooled blocks
// that the last release returns to the pool) and tuples/s versus a receive
// batch of one.
func BenchmarkReceiverReceiveBatch(b *testing.B) {
	payload := bytes.Repeat([]byte("p"), 128)
	const frames = 1024
	var stream []byte
	for i := 0; i < frames; i++ {
		var err error
		stream, err = AppendFrame(stream, Tuple{Seq: uint64(i), Payload: payload})
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, max := range []int{16, 64, 256} {
		b.Run(fmt.Sprintf("max=%d", max), func(b *testing.B) {
			reader := bytes.NewReader(stream)
			rc := NewReceiver(reader)
			var batch []Tuple
			decoded := 0
			b.ReportAllocs()
			b.SetBytes(int64(len(stream) / frames))
			b.ResetTimer()
			for decoded < b.N {
				if decoded%frames == 0 {
					reader.Seek(0, io.SeekStart)
					rc = NewReceiver(reader)
				}
				tuples, ref, err := rc.ReceiveBatch(batch[:0], max)
				if err != nil {
					b.Fatal(err)
				}
				decoded += len(tuples)
				ref.ReleaseN(len(tuples))
				batch = tuples
			}
			b.ReportMetric(float64(decoded)/b.Elapsed().Seconds(), "tuples/s")
		})
	}
}
