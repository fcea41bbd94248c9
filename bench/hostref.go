package main

import (
	"math"
	"runtime"
	"time"
)

// The host this was sized on runs CPU-bound code at two or three speeds that
// each hold for seconds to minutes (quarter-second throughput of one tcp_sat
// region reads ~1.0 M tuples/s, then ~1.4 M, then back, with dips to ~0.8 M;
// the region's own counters are the same throughout, pinning changes nothing
// and neither does occupying the other vCPU: it is what the neighbours do).
// Which speed a half-minute run meets is luck, so no summary of raw throughput
// repeats: over blocks of ten runs the median segment spread 7-29 % on
// tcp_sat and 4-20 % on inproc_sat, and the best-quarter mean and the best
// segment did no better. What does repeat is throughput relative to reference
// kernels timed before and after each segment.
//
// The kernels use nothing from this repository, so a change to the system
// under test cannot move them, and each does one of the two things the
// saturated workloads spend their time on:
//
//   - handoff: round trips between two goroutines over unbuffered channels,
//     i.e. park, wake and switch, which is what every hop of a region does;
//   - stream: 2 KiB writes through a loopback TCP connection into a reader,
//     i.e. the kernel's socket path, which only the TCP transport uses.
//
// inproc_sat is scaled by the first, tcp_sat by the geometric mean of both:
// over 24 runs in an hour when the unscaled median segment spread 27 % and
// 18 %, that left 3.3 % and 1.9 %, against 5.3 % for tcp_sat scaled by the
// hand-offs alone. An integer spin and a memory copy were also tried; the
// spin hardly notices the host's speeds and the copy overreacts to them.
const (
	refRounds    = 80_000
	refWrites    = 20_000
	refWriteSize = 2048 // about what a batch of 32 tuples frames to

	// What the kernels take at the sizing host's usual speed. They only fix
	// the scale, so that speed 1.0 means "that host, then"; a different Go
	// version moves them and with them every scaled baseline.
	refHandoffNominal = 60 * time.Millisecond
	refStreamNominal  = 44 * time.Millisecond
	refCalibratedWith = "go1.24.0"
)

// refReading is one timing of the reference kernels. stream is 0 when the
// workload does not use TCP and the kernel was not run.
type refReading struct {
	handoff, stream time.Duration
}

// hostRef times the reference kernels at GOMAXPROCS=1.
func hostRef(tcp bool) (refReading, error) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var r refReading
	ping, pong := make(chan int), make(chan int)
	go func() {
		for v := range ping {
			pong <- v
		}
	}()
	start := time.Now()
	for i := 0; i < refRounds; i++ {
		ping <- i
		<-pong
	}
	r.handoff = time.Since(start)
	close(ping)
	if !tcp {
		return r, nil
	}

	client, server, err := loopback()
	if err != nil {
		return r, err
	}
	defer client.Close()
	defer server.Close()
	drained := make(chan error, 1)
	go func() {
		buf := make([]byte, 16<<10)
		for left := refWrites * refWriteSize; left > 0; {
			n, err := server.Read(buf)
			if err != nil {
				drained <- err
				return
			}
			left -= n
		}
		drained <- nil
	}()
	buf := make([]byte, refWriteSize)
	start = time.Now()
	for i := 0; i < refWrites; i++ {
		if _, err := client.Write(buf); err != nil {
			return r, err
		}
	}
	if err := <-drained; err != nil {
		return r, err
	}
	r.stream = time.Since(start)
	return r, nil
}

// hostSpeed turns the readings on either side of a segment into the host's
// speed during it, 1.0 being the sizing host's usual one.
func hostSpeed(before, after refReading) float64 {
	speed := float64(refHandoffNominal) / (float64(before.handoff+after.handoff) / 2)
	if before.stream > 0 && after.stream > 0 {
		stream := float64(refStreamNominal) / (float64(before.stream+after.stream) / 2)
		speed = math.Sqrt(speed * stream)
	}
	return speed
}
