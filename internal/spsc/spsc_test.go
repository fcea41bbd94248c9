package spsc

import (
	"sync/atomic"
	"testing"
	"time"
)

// The FIFO, boundary, concurrency and reference-conservation properties are
// checked from outside the package in ring_test.go. What needs the ring's
// and the parker's internals stays here.

// TestRingPopZeroesSlot pins the ownership hygiene: a popped slot must not
// keep whatever the item pointed at reachable through the ring's buffer.
func TestRingPopZeroesSlot(t *testing.T) {
	type slot struct {
		ref     *int
		payload []byte
	}
	r := NewRing[slot](2)
	r.Push(slot{ref: new(int), payload: []byte("p")})
	if _, ok := r.Pop(); !ok {
		t.Fatal("pop failed")
	}
	for i := range r.buf {
		if r.buf[i].ref != nil || r.buf[i].payload != nil {
			t.Fatalf("slot %d still pins ref/payload after pop", i)
		}
	}
}

// TestParkerWakeAfterStateChange drives the Dekker hand-off: a waker that
// changes the condition and then calls Wake must release the parker, however
// the two interleave, and Park must not return while the condition holds.
func TestParkerWakeAfterStateChange(t *testing.T) {
	for trial := 0; trial < 2000; trial++ {
		var k Parker
		var blocked atomic.Bool
		blocked.Store(true)
		done := make(chan struct{})
		go func() {
			k.Park(blocked.Load)
			close(done)
		}()
		if trial%2 == 0 {
			// Let the parker actually sleep on some trials; on the others
			// the wake races the park.
			for k.parked.Load() == 0 {
				time.Sleep(10 * time.Microsecond)
			}
			k.Wake() // spurious: the condition still holds
			select {
			case <-done:
				t.Fatal("Park returned while its condition still held")
			case <-time.After(100 * time.Microsecond):
			}
		}
		blocked.Store(false)
		k.Wake()
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			t.Fatalf("trial %d: parker missed the wake", trial)
		}
		if k.parked.Load() != 0 {
			t.Fatalf("trial %d: parked counter %d after Park returned", trial, k.parked.Load())
		}
	}
}

// TestParkerWakeWithNobodyParked: Wake on an idle (even never-used) Parker
// is a no-op.
func TestParkerWakeWithNobodyParked(t *testing.T) {
	var k Parker
	k.Wake()
	k.Park(func() bool { return false })
	k.Wake()
}
