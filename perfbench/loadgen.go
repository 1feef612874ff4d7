package main

import (
	"sync"
	"sync/atomic"
	"time"
)

// clock lets tests drive the open-loop generator with fake time.
type clock interface {
	Now() time.Time
	SleepUntil(t time.Time)
}

type realClock struct{}

func (realClock) Now() time.Time { return time.Now() }

func (realClock) SleepUntil(t time.Time) {
	if d := time.Until(t); d > 0 {
		time.Sleep(d)
	}
}

// outcome is what one request returned.
type outcome struct {
	err     error
	refused bool // 429 or 503
	bytes   int  // field bytes the request carried or returned
}

// sample is one scheduled request's timeline.
type sample struct {
	due, start, end time.Time
	slept           bool // the connection was idle and waited for the due time
	out             outcome
}

// latency is measured from the due time, so a stalled connection's wait is
// charged to every request queued behind it.
func (s sample) latency() time.Duration { return s.end.Sub(s.due) }

// wait is the time from due to send: the generator's own lateness when the
// connection was idle, queueing behind busy connections otherwise.
func (s sample) wait() time.Duration { return s.start.Sub(s.due) }

// openLoop sends requests due at t0+dues[i] over conns connections. Each
// connection takes the next request in due order as soon as it is free and
// sends it at its due time, or at once if that has passed, so arrivals never
// wait for replies to be scheduled. do(i) performs request i.
func openLoop(clk clock, t0 time.Time, dues []time.Duration, conns int, do func(i int) outcome) []sample {
	samples := make([]sample, len(dues))
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(dues) {
					return
				}
				s := sample{due: t0.Add(dues[i])}
				if clk.Now().Before(s.due) {
					clk.SleepUntil(s.due)
					s.slept = true
				}
				s.start = clk.Now()
				s.out = do(i)
				s.end = clk.Now()
				samples[i] = s
			}
		}()
	}
	wg.Wait()
	return samples
}
