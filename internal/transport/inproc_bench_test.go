package transport

import (
	"fmt"
	"testing"
)

// BenchmarkInprocPipe measures the raw shared-memory edge: one producer
// goroutine sending batches through the ring, one consumer draining them.
// ring=1024 is the fast path (a flush finds free slots and publishes once);
// ring=2 is the park/wake protocol (every flush of more than two tuples
// parks on a full ring, and the consumer parks on an empty one), so a change
// that speeds the first by slowing the second shows. ReportAllocs pins that
// past warm-up the pipe moves tuples with zero allocations per operation.
func BenchmarkInprocPipe(b *testing.B) {
	for _, c := range []struct{ ring, batch int }{{1024, 1}, {1024, 64}, {2, 1}, {2, 64}} {
		batch := c.batch
		b.Run(fmt.Sprintf("ring=%d/batch=%d", c.ring, batch), func(b *testing.B) {
			tx, rx := InprocPair(c.ring)
			defer tx.Close()
			defer rx.Close()
			payload := make([]byte, 64)
			ts := make([]Tuple, batch)
			for i := range ts {
				ts[i] = Tuple{Seq: uint64(i), Payload: payload}
			}
			done := make(chan int)
			go func() {
				var buf []Tuple
				got := 0
				for got < b.N*batch {
					var err error
					buf, _, err = rx.ReceiveBatch(buf, 256)
					if err != nil {
						break
					}
					got += len(buf)
				}
				done <- got
			}()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := tx.SendBatch(ts); err != nil {
					b.Fatal(err)
				}
			}
			if got := <-done; got != b.N*batch {
				b.Fatalf("consumer got %d tuples, want %d", got, b.N*batch)
			}
			b.ReportMetric(float64(b.N*batch)/b.Elapsed().Seconds(), "tuples/s")
		})
	}
}
