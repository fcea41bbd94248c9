package runtime

import (
	"fmt"
	"io"
	"net"
	"testing"

	"streambalance/internal/transport"
)

// frameReads is a stream that delivers the same frames reads times, each
// time in one Read when the caller's buffer has room for them — as a socket
// does when the peer writes faster than the reader drains.
type frameReads struct {
	frames     []byte
	off, reads int
}

func (r *frameReads) Read(p []byte) (int, error) {
	if r.off == len(r.frames) {
		if r.reads == 0 {
			return 0, io.EOF
		}
		r.reads, r.off = r.reads-1, 0
	}
	n := copy(p, r.frames[r.off:])
	r.off += n
	return n, nil
}

// BenchmarkWorkerPass runs the TCP worker loop — in-place decode, Identity,
// one forward over loopback TCP per pass — on reads of 32 and 512 frames and
// reports its cost per tuple and the tuples each forward carried. This file uses
// only pe.serve and the transport, so it copies onto a parent commit for a
// paired comparison.
func BenchmarkWorkerPass(b *testing.B) {
	for _, read := range []int{32, 512} {
		b.Run(fmt.Sprintf("read=%d", read), func(b *testing.B) {
			ts := make([]transport.Tuple, read)
			for i := range ts {
				ts[i] = transport.Tuple{Seq: uint64(i), Payload: make([]byte, 64)}
			}
			frames, err := transport.AppendBatch(nil, ts)
			if err != nil {
				b.Fatal(err)
			}
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				b.Fatal(err)
			}
			defer ln.Close()
			client, err := net.Dial("tcp", ln.Addr().String())
			if err != nil {
				b.Fatal(err)
			}
			server, err := ln.Accept()
			if err != nil {
				b.Fatal(err)
			}
			drained := make(chan struct{})
			go func() {
				io.Copy(io.Discard, server)
				server.Close()
				close(drained)
			}()
			tx, err := transport.NewSender(client)
			if err != nil {
				b.Fatal(err)
			}
			p := &pe{operator: Identity(), done: make(chan struct{})}
			b.ResetTimer()
			if err := p.serve(transport.NewReceiver(&frameReads{frames: frames, off: len(frames), reads: b.N}), tx); err != nil {
				b.Fatal(err)
			}
			b.StopTimer()
			<-drained
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*read), "ns/tuple")
			b.ReportMetric(float64(tx.Sent())/float64(tx.Flushes()), "tuples/forward")
		})
	}
}
