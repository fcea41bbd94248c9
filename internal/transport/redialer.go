package transport

import (
	"fmt"
	"math/rand"
	"net"
	"time"
)

// RedialPolicy shapes the exponential backoff a Redialer applies between
// connection attempts: the delay doubles after every failure, from Base up to
// Max. The zero value selects the defaults below.
type RedialPolicy struct {
	// Base is the delay before the second attempt (default 20ms). The
	// first attempt is immediate.
	Base time.Duration
	// Max caps the grown delay (default 2s).
	Max time.Duration
	// Jitter spreads each delay uniformly in [d*(1-J), d*(1+J)] so that a
	// fleet of reconnecting splitters does not thunder in lockstep
	// (0 selects the default 0.2; a negative value disables jitter and
	// keeps the deterministic schedule).
	Jitter float64
	// MaxAttempts bounds the total number of attempts; 0 means unlimited
	// (the caller stops the redialer through the stop channel).
	MaxAttempts int
}

func (p RedialPolicy) withDefaults() RedialPolicy {
	if p.Base <= 0 {
		p.Base = 20 * time.Millisecond
	}
	if p.Max <= 0 {
		p.Max = 2 * time.Second
	}
	if p.Jitter == 0 {
		p.Jitter = 0.2
	}
	if p.Jitter < 0 {
		p.Jitter = 0
	}
	return p
}

// Redialer re-establishes a connection with exponential backoff and jitter.
// It is how a splitter lets a restarted worker rejoin a region: the paper
// assumes long-lived connections to a fixed worker set (Section 4.4), while
// production deployments treat worker churn as the normal case. One attempt
// is one call of the connect function, which owns everything that must
// succeed before the connection counts: the dial and its deadline, socket
// options, a health probe.
type Redialer struct {
	connect  func() (net.Conn, error)
	pol      RedialPolicy
	attempts int
}

// NewRedialer prepares a redialer that attempts connect under the given
// policy.
func NewRedialer(connect func() (net.Conn, error), pol RedialPolicy) *Redialer {
	return &Redialer{connect: connect, pol: pol.withDefaults()}
}

// Attempts returns how many attempts have been made so far.
func (r *Redialer) Attempts() int {
	return r.attempts
}

// Dial attempts to connect until it succeeds, the policy's attempt budget is
// exhausted, or stop is closed. stop may be nil.
func (r *Redialer) Dial(stop <-chan struct{}) (net.Conn, error) {
	delay := r.pol.Base
	var lastErr error
	for {
		if r.pol.MaxAttempts > 0 && r.attempts >= r.pol.MaxAttempts {
			return nil, fmt.Errorf("transport: redial: %d attempts exhausted: %w", r.attempts, lastErr)
		}
		r.attempts++
		conn, err := r.connect()
		if err == nil {
			return conn, nil
		}
		lastErr = err
		wait := delay
		if r.pol.Jitter > 0 {
			f := 1 + r.pol.Jitter*(2*rand.Float64()-1)
			wait = time.Duration(float64(wait) * f)
		}
		timer := time.NewTimer(wait)
		select {
		case <-stop:
			timer.Stop()
			return nil, fmt.Errorf("transport: redial: stopped after %d attempts: %w", r.attempts, lastErr)
		case <-timer.C:
		}
		delay = min(2*delay, r.pol.Max)
	}
}
