package transport

import (
	"io"
	"net"
	"testing"
	"time"
)

// TestAcksFollowTheHello: a stream that opens with the hello decodes as the
// frames after it; the consumer's Ack made before its first receive answers
// the hello, and each later Ack reaches ReadAcks as the latest count. A
// stream without the hello gets no byte back, however often the consumer
// acks.
func TestAcksFollowTheHello(t *testing.T) {
	for _, hello := range []bool{true, false} {
		near, far := net.Pipe()
		acks := NewAcks()
		readErr := make(chan error, 1)
		if hello {
			go func() {
				if err := ReadAckAnswer(near, acks); err != nil {
					readErr <- err
					return
				}
				readErr <- ReadAcks(near, acks)
			}()
		}
		go func() {
			if hello {
				if err := WriteAckHello(near); err != nil {
					t.Error(err)
				}
			}
			buf, _ := AppendFrame(nil, Tuple{Seq: 7, Payload: []byte("a")})
			buf, _ = AppendFrame(buf, Tuple{Seq: 8, Payload: []byte("b")})
			if _, err := near.Write(buf); err != nil {
				t.Error(err)
			}
		}()
		rx := NewReceiver(far)
		rx.Ack(0)
		var got []Tuple
		for len(got) < 2 {
			batch, ref, err := rx.ReceiveBatch(nil, 0)
			if err != nil {
				t.Fatalf("hello=%v: receive: %v", hello, err)
			}
			got = append(got, batch...)
			ref.ReleaseN(len(batch))
			if err := rx.Ack(uint64(len(got))); err != nil {
				t.Fatalf("hello=%v: ack: %v", hello, err)
			}
		}
		if got[0].Seq != 7 || got[1].Seq != 8 {
			t.Fatalf("hello=%v: decoded seqs %d, %d, want 7, 8", hello, got[0].Seq, got[1].Seq)
		}
		if !hello {
			// The pipe is synchronous: an ack would block here, unread.
			far.Close()
			if n, err := near.Read(make([]byte, 1)); err != io.EOF {
				t.Fatalf("no hello: the consumer wrote back (%d bytes, %v)", n, err)
			}
			continue
		}
		for acks.Load() != 2 {
			select {
			case <-acks.Bell():
			case <-time.After(5 * time.Second):
				t.Fatalf("ack count %d, want 2", acks.Load())
			}
		}
		if !acks.Acking() {
			t.Fatal("acks stored but not acking")
		}
		far.Close()
		if err := <-readErr; err != io.EOF {
			t.Fatalf("ReadAcks ended with %v, want io.EOF", err)
		}
		select {
		case <-acks.Done():
		default:
			t.Fatal("acks not closed after the stream ended")
		}
	}
}

// TestHelloAnswerSaysWhetherTheConsumerAcks: the receiver answers the hello
// as soon as its first receive reads it, before any frame has arrived: with
// the consumer's early Ack, or, from a consumer that made none, with an
// answer that leaves the edge not acking, after which its Acks send nothing.
// In-proc the edge acks from the receiver's first Ack.
func TestHelloAnswerSaysWhetherTheConsumerAcks(t *testing.T) {
	for _, early := range []bool{true, false} {
		near, far := net.Pipe()
		rx := NewReceiver(far)
		if early {
			rx.Ack(0)
		}
		received := make(chan error, 1)
		go func() {
			// Reads the hello, then waits for a frame until far closes.
			_, _, err := rx.ReceiveBatch(nil, 0)
			received <- err
		}()
		go WriteAckHello(near)
		acks := NewAcks()
		near.SetReadDeadline(time.Now().Add(5 * time.Second))
		if err := ReadAckAnswer(near, acks); err != nil {
			t.Fatalf("early=%v: %v", early, err)
		}
		if acks.Acking() != early || acks.Load() != 0 {
			t.Fatalf("early=%v: acking %v at %d", early, acks.Acking(), acks.Load())
		}
		if !early {
			// A later Ack writes nothing: the synchronous pipe would block.
			if err := rx.Ack(5); err != nil {
				t.Fatal(err)
			}
		}
		far.Close()
		<-received
		near.Close()
	}

	tx, rx := InprocPair(4)
	if tx.Acks().Acking() {
		t.Fatal("in-proc: acking before the receiver acked")
	}
	rx.Ack(0)
	if !tx.Acks().Acking() || tx.Acks().Load() != 0 {
		t.Fatalf("in-proc: after Ack(0) acking %v at %d", tx.Acks().Acking(), tx.Acks().Load())
	}
	rx.Close()
}
