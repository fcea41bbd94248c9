package main

import "time"

// The paced workload is an open loop: tuples fall due on a fixed schedule
// that does not slow down when the region does. Delivering 200 k tuples/s one
// at a time would need a 5 µs timer, far below what time.Sleep can hold, so
// the schedule is bursts: burstTuples fall due together every burstPeriod.
const (
	pacedRate   = 200_000 // tuples/s
	burstTuples = 384     // a multiple of the splitter batch, see pacer.wait
	burstPeriod = time.Duration(burstTuples) * time.Second / pacedRate
)

// pacer holds the open-loop schedule. It is driven from the region's Source,
// i.e. on the splitter goroutine, and is not safe for concurrent use.
//
// A burst's latency origin is its due time plus the generator's own
// oversleep: when the generator asked to sleep until the due time and the
// timer fired late, that lateness is the harness's and is taken out; when the
// generator reaches a burst already past its due time (the region pushed
// back on the previous burst), nothing is taken out, so a stall the system
// imposes on later bursts still counts against it.
type pacer struct {
	now   func() int64          // monotonic ns
	sleep func(d time.Duration) // blocks the generator

	start     int64 // due time of burst 0
	started   bool
	origin    int64   // latency origin of the current burst
	oversleep []int64 // ns, one entry per burst the generator slept for
	slept     int64   // total ns spent in sleep, for the splitter busy row
}

// wait is called before every tuple is handed out and returns the latency
// origin of the burst seq belongs to. It blocks only when seq opens a burst;
// burstTuples is a multiple of the splitter's batch size, so the splitter is
// never parked holding a half-staged batch.
func (p *pacer) wait(seq uint64) int64 {
	if seq%burstTuples != 0 {
		return p.origin
	}
	now := p.now()
	if !p.started {
		p.started = true
		p.start = now
	}
	due := p.start + int64(seq/burstTuples)*int64(burstPeriod)
	p.origin = due
	if now < due {
		p.sleep(time.Duration(due - now))
		woke := p.now()
		p.slept += woke - now
		over := woke - due
		if over < 0 {
			over = 0
		}
		p.oversleep = append(p.oversleep, over)
		p.origin = due + over
	}
	return p.origin
}
