package spsc

import (
	"sync"
	"sync/atomic"
	"time"
)

// Parker is one goroutine's parking spot: where a ring's producer sleeps
// while the ring is full, its consumer while it is empty, and the merge loop
// while every lane is drained. The hand-off is Dekker's: Park raises the
// parked counter (sequentially consistent) before re-checking its condition
// under the mutex, so a waker that changes state and then reads parked == 0
// in Wake is guaranteed the parker will observe that change and not sleep.
// The zero value is ready to use; a Parker must not be copied after first use.
type Parker struct {
	parked atomic.Int32
	mu     sync.Mutex
	cond   sync.Cond

	// ParkFor's bound: allocated once, re-armed per call.
	timer   *time.Timer
	expired atomic.Bool
}

// Park blocks the caller while blocked() holds. blocked must read only
// atomics: it runs under the parker's mutex, and the state it reads is
// changed by wakers that do not hold it.
func (k *Parker) Park(blocked func() bool) {
	k.parked.Add(1)
	k.mu.Lock()
	k.cond.L = &k.mu // only Wait reads L, and only under mu
	for blocked() {
		k.cond.Wait()
	}
	k.mu.Unlock()
	k.parked.Add(-1)
}

// ParkFor is Park bounded by d (d <= 0: unbounded): it also returns once d
// has passed, and reports whether blocked still held then. The timer only
// wakes the park; it fired within this call exactly when Stop finds it spent,
// so a late firing of the previous call's timer cannot end one early.
func (k *Parker) ParkFor(blocked func() bool, d time.Duration) (expired bool) {
	if d <= 0 {
		k.Park(blocked)
		return false
	}
	k.expired.Store(false)
	if k.timer == nil {
		k.timer = time.AfterFunc(d, func() {
			k.expired.Store(true)
			k.Wake()
		})
	} else {
		k.timer.Reset(d)
	}
	k.Park(func() bool { return blocked() && !k.expired.Load() })
	return !k.timer.Stop() && blocked()
}

// Wake unblocks whoever is parked here so it re-evaluates its condition. It
// costs one atomic load while nobody is parked (the steady state), so the
// data path's hot side never touches the mutex.
func (k *Parker) Wake() {
	if k.parked.Load() == 0 {
		return
	}
	k.mu.Lock()
	k.cond.Broadcast()
	k.mu.Unlock()
}
