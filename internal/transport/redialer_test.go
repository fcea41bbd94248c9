package transport

import (
	"net"
	"strings"
	"testing"
	"time"
)

// dialTCP is the plain connect function: one TCP dial to addr.
func dialTCP(addr string) func() (net.Conn, error) {
	return func() (net.Conn, error) { return net.DialTimeout("tcp", addr, 2*time.Second) }
}

func TestRedialerImmediateSuccess(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		conn, err := ln.Accept()
		if err == nil {
			conn.Close()
		}
	}()
	rd := NewRedialer(dialTCP(ln.Addr().String()), RedialPolicy{})
	conn, err := rd.Dial(nil)
	if err != nil {
		t.Fatal(err)
	}
	conn.Close()
	if rd.Attempts() != 1 {
		t.Fatalf("attempts = %d, want 1", rd.Attempts())
	}
}

func TestRedialerMaxAttemptsExhausted(t *testing.T) {
	// Grab a port and close it so dials fail fast.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	rd := NewRedialer(dialTCP(addr), RedialPolicy{
		Base:        time.Millisecond,
		Max:         2 * time.Millisecond,
		MaxAttempts: 3,
		Jitter:      -1,
	})
	start := time.Now()
	if _, err := rd.Dial(nil); err == nil {
		t.Fatal("dial to a closed port succeeded")
	} else if !strings.Contains(err.Error(), "attempts exhausted") {
		t.Fatalf("unexpected error: %v", err)
	}
	if rd.Attempts() != 3 {
		t.Fatalf("attempts = %d, want 3", rd.Attempts())
	}
	// Backoff 1ms + 2ms between the three attempts.
	if elapsed := time.Since(start); elapsed < 3*time.Millisecond {
		t.Fatalf("finished in %v: backoff not applied", elapsed)
	}
}

func TestRedialerStops(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	stop := make(chan struct{})
	rd := NewRedialer(dialTCP(addr), RedialPolicy{Base: time.Hour})
	done := make(chan error, 1)
	go func() {
		_, err := rd.Dial(stop)
		done <- err
	}()
	time.Sleep(10 * time.Millisecond)
	close(stop)
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("stopped dial returned a connection")
		}
		if !strings.Contains(err.Error(), "stopped") {
			t.Fatalf("unexpected error: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Dial ignored the stop channel")
	}
}

func TestRedialerRecoversWhenListenerReturns(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	go func() {
		time.Sleep(30 * time.Millisecond)
		ln2, err := net.Listen("tcp", addr)
		if err != nil {
			return
		}
		defer ln2.Close()
		conn, err := ln2.Accept()
		if err == nil {
			conn.Close()
		}
	}()
	rd := NewRedialer(dialTCP(addr), RedialPolicy{Base: 2 * time.Millisecond, Max: 10 * time.Millisecond})
	conn, err := rd.Dial(nil)
	if err != nil {
		t.Fatalf("never reconnected: %v", err)
	}
	conn.Close()
	if rd.Attempts() < 2 {
		t.Fatalf("attempts = %d, want >= 2", rd.Attempts())
	}
}

func TestRedialPolicyDefaults(t *testing.T) {
	p := RedialPolicy{}.withDefaults()
	if p.Base != 20*time.Millisecond || p.Max != 2*time.Second || p.Jitter != 0.2 || p.MaxAttempts != 0 {
		t.Fatalf("unexpected defaults: %+v", p)
	}
	if j := (RedialPolicy{Jitter: -1}).withDefaults().Jitter; j != 0 {
		t.Fatalf("negative jitter should disable, got %v", j)
	}
}
