package main

import (
	"testing"
	"time"
)

// fakeClock advances only when a request runs or the generator sleeps.
type fakeClock struct{ now time.Time }

func (c *fakeClock) Now() time.Time { return c.now }

func (c *fakeClock) SleepUntil(t time.Time) {
	if t.After(c.now) {
		c.now = t
	}
}

func TestOpenLoopMeasuresFromDueTime(t *testing.T) {
	clk := &fakeClock{now: time.Unix(1000, 0)}
	t0 := clk.now.Add(time.Millisecond)
	ms := time.Millisecond
	// Four requests due 1 ms apart, each taking 3 ms on one connection:
	// they queue, and each one's latency includes the wait behind the
	// previous ones. A final request due long after is sent on time.
	dues := []time.Duration{0, ms, 2 * ms, 3 * ms, 50 * ms}
	samples := openLoop(clk, t0, dues, 1, func(i int) outcome {
		clk.now = clk.now.Add(3 * ms)
		return outcome{}
	})
	wantLat := []time.Duration{3 * ms, 5 * ms, 7 * ms, 9 * ms, 3 * ms}
	wantWait := []time.Duration{0, 2 * ms, 4 * ms, 6 * ms, 0}
	wantSlept := []bool{true, false, false, false, true}
	for i, s := range samples {
		if s.latency() != wantLat[i] || s.wait() != wantWait[i] || s.slept != wantSlept[i] {
			t.Errorf("request %d: latency %v wait %v slept %v; want %v %v %v",
				i, s.latency(), s.wait(), s.slept, wantLat[i], wantWait[i], wantSlept[i])
		}
		if s.due != t0.Add(dues[i]) {
			t.Errorf("request %d due %v, want %v", i, s.due, t0.Add(dues[i]))
		}
	}
}

func TestBacklogGrowth(t *testing.T) {
	base := time.Unix(0, 0)
	mk := func(waits ...time.Duration) []sample {
		out := make([]sample, len(waits))
		for i, w := range waits {
			out[i] = sample{due: base, start: base.Add(w)}
		}
		return out
	}
	ms := time.Millisecond
	if g := backlogGrowth(mk(0, 0, ms, ms, 2*ms, 3*ms, 8*ms, 9*ms)); g != 8*ms+ms/2 {
		t.Errorf("growing backlog = %v, want 8.5ms", g)
	}
	if g := backlogGrowth(mk(ms, ms, ms, ms, ms, ms, ms, ms)); g != 0 {
		t.Errorf("steady backlog = %v, want 0", g)
	}
}
