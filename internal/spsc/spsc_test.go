package spsc

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// The FIFO, boundary, concurrency and reference-conservation properties are
// checked from outside the package in ring_test.go. What needs the ring's
// and the parker's internals stays here.

// TestRingPopZeroesSlot pins the ownership hygiene: a released slot must not
// keep whatever the item pointed at reachable through the ring's buffer —
// whether Pop released it or a span Release did — so Free never hands the
// producer a slot that is not zero.
func TestRingPopZeroesSlot(t *testing.T) {
	type slot struct {
		ref     *int
		payload []byte
	}
	pinned := func(s slot) bool { return s.ref != nil || s.payload != nil }
	r := NewRing[slot](2)
	r.Push(slot{ref: new(int), payload: []byte("p")})
	if _, ok := r.Pop(); !ok {
		t.Fatal("pop failed")
	}
	for i := range r.buf {
		if pinned(r.buf[i]) {
			t.Fatalf("slot %d still pins ref/payload after pop", i)
		}
	}

	// Spans, across the wrap: fill every free slot, release a prefix, and
	// look at the whole buffer — exactly the unreleased slots are non-zero.
	r = NewRing[slot](4)
	for round, release := range []int{3, 0, 4, 1, 2, 4} {
		a, b := r.Free()
		for _, span := range [2][]slot{a, b} {
			for i := range span {
				if pinned(span[i]) {
					t.Fatalf("round %d: Free exposed a non-zero slot", round)
				}
				span[i] = slot{ref: new(int), payload: []byte("p")}
			}
		}
		r.Publish(len(a) + len(b))
		if r.Len() != r.Cap() {
			t.Fatalf("round %d: ring not full after publishing all of Free", round)
		}
		a, b = r.Ready()
		r.Release(release)
		live := 0
		for i := range r.buf {
			if pinned(r.buf[i]) {
				live++
			}
		}
		if live != r.Cap()-release {
			t.Fatalf("round %d: %d slots still pinned after Release(%d) of %d", round, live, release, r.Cap())
		}
		for i, s := range append(a[:len(a):len(a)], b...) {
			if pinned(s) != (i >= release) {
				t.Fatalf("round %d: Ready slot %d pinned=%v after Release(%d)", round, i, pinned(s), release)
			}
		}
	}
}

// TestRingSpanOverrunPanics: handing over more slots than the last Free or
// Ready offered is a bug in the caller, caught by one compare rather than
// left to corrupt the cursors.
func TestRingSpanOverrunPanics(t *testing.T) {
	panics := func(f func()) (p bool) {
		defer func() { p = recover() != nil }()
		f()
		return false
	}
	r := NewRing[int](4)
	if !panics(func() { r.Publish(1) }) {
		t.Error("Publish with no Free did not panic")
	}
	r.Free()
	r.Publish(3)
	if !panics(func() { r.Publish(2) }) {
		t.Error("Publish(3) then Publish(2) of 4 free slots did not panic")
	}
	if !panics(func() { r.Release(1) }) {
		t.Error("Release with no Ready did not panic")
	}
	r.Ready()
	r.Release(2)
	if !panics(func() { r.Release(2) }) {
		t.Error("Release(2) then Release(2) of 3 ready slots did not panic")
	}
	if !panics(func() { r.Publish(-1) }) || !panics(func() { r.Release(-1) }) {
		t.Error("negative span did not panic")
	}
	if r.Len() != 1 {
		t.Errorf("Len() = %d after the refused calls, want 1", r.Len())
	}
}

// BenchmarkRingHandoff is what the primitive itself buys: two goroutines
// moving a slot the size of the data path's (a 72-byte tuple plus a pointer)
// through one ring, batch items per producer turn, per item (Push/Pop: two
// cursor loads and one cursor store per item per side) against per span
// (Free/Publish, Ready/Release: the same per batch).
func BenchmarkRingHandoff(b *testing.B) {
	type slot struct {
		t   [9]uint64
		ref *int
	}
	for _, api := range []string{"item", "span"} {
		for _, batch := range []int{1, 16, 64} {
			b.Run(fmt.Sprintf("%s/batch=%d", api, batch), func(b *testing.B) {
				r := NewRing[slot](1024)
				src := make([]slot, batch)
				for i := range src {
					src[i].t[0] = uint64(i)
				}
				total := b.N * batch
				done := make(chan uint64)
				go func() {
					var sum uint64
					for got := 0; got < total; {
						if api == "item" {
							if it, ok := r.Pop(); ok {
								sum += it.t[0]
								got++
								continue
							}
						} else if x, y := r.Ready(); len(x) > 0 {
							for _, span := range [2][]slot{x, y} {
								for i := range span {
									sum += span[i].t[0]
								}
							}
							r.Release(len(x) + len(y))
							got += len(x) + len(y)
							continue
						}
						runtime.Gosched()
					}
					done <- sum
				}()
				b.ResetTimer()
				for n := 0; n < b.N; n++ {
					for sent := 0; sent < batch; {
						if api == "item" {
							if r.Push(src[sent]) {
								sent++
								continue
							}
						} else if x, y := r.Free(); len(x) > 0 {
							k := copy(x, src[sent:])
							k += copy(y, src[sent+k:])
							r.Publish(k)
							sent += k
							continue
						}
						runtime.Gosched()
					}
				}
				<-done
				b.ReportMetric(float64(total)/b.Elapsed().Seconds(), "items/s")
			})
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

// TestParkerParkForBound: ParkFor returns at its bound reporting a wait that
// is still blocked, and reports nothing when a wake ends the wait first or
// the bound is off.
func TestParkerParkForBound(t *testing.T) {
	var k Parker
	if !k.ParkFor(func() bool { return true }, 10*time.Millisecond) {
		t.Fatal("a wait still blocked at its bound was not reported")
	}
	var ready atomic.Bool
	done := make(chan bool, 1)
	go func() { done <- k.ParkFor(func() bool { return !ready.Load() }, time.Minute) }()
	ready.Store(true)
	k.Wake()
	if expired := <-done; expired {
		t.Fatal("a wait a wake ended was reported as expired")
	}
	if k.ParkFor(func() bool { return false }, 0) {
		t.Fatal("an unbounded park reported expiry")
	}
}
