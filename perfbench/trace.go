package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around the
// layer's public function. Parent is 0 for a root span; spans of one
// request or op share Req. Work is the amount the call processed (elements,
// bytes or points, as the span name's metric defines).
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Req    int64  `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Work   int64  `json:"work,omitempty"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory until the run writes them out. A nil tracer
// records nothing, so untraced runs pay one nil check per call site.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	next  int64
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// open is a started span; close it with end.
type open struct {
	t      *tracer
	id     int64
	parent int64
	req    int64
	name   string
	start  time.Time
}

// start opens a span under parent (0 for a root) for request req.
func (t *tracer) start(name string, parent, req int64) open {
	if t == nil {
		return open{}
	}
	t.mu.Lock()
	t.next++
	id := t.next
	t.mu.Unlock()
	return open{t: t, id: id, parent: parent, req: req, name: name, start: time.Now()}
}

// end closes the span, recording work units.
func (o open) end(work int64) {
	if o.t == nil {
		return
	}
	now := time.Now()
	s := span{ID: o.id, Parent: o.parent, Req: o.req, Name: o.name,
		Start: int64(o.start.Sub(o.t.epoch)), End: int64(now.Sub(o.t.epoch)), Work: work}
	o.t.mu.Lock()
	o.t.spans = append(o.t.spans, s)
	o.t.mu.Unlock()
}

// add records an already-measured interval as a span.
func (t *tracer) add(name string, parent, req int64, start, end time.Time, work int64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.next++
	t.spans = append(t.spans, span{ID: t.next, Parent: parent, Req: req, Name: name,
		Start: int64(start.Sub(t.epoch)), End: int64(end.Sub(t.epoch)), Work: work})
}

// snapshot returns a copy of the recorded spans.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// layerStat aggregates the spans of one name.
type layerStat struct {
	Name  string
	Count int
	Total time.Duration
	Self  time.Duration
	Work  int64
}

// selfTimes returns, per span ID, the span's duration minus the part of its
// interval covered by its children (overlapping children count once).
func selfTimes(spans []span) map[int64]time.Duration {
	children := map[int64][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[int64]time.Duration, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		var covered, curLo, curHi int64
		curLo, curHi = -1, -1
		for _, k := range kids {
			lo, hi := max(k.Start, s.Start), min(k.End, s.End)
			if hi <= lo {
				continue
			}
			if lo > curHi {
				if curHi > curLo {
					covered += curHi - curLo
				}
				curLo, curHi = lo, hi
			} else if hi > curHi {
				curHi = hi
			}
		}
		if curHi > curLo {
			covered += curHi - curLo
		}
		out[s.ID] = s.dur() - time.Duration(covered)
	}
	return out
}

// aggregate groups spans by name with their total and self time.
func aggregate(spans []span) map[string]*layerStat {
	self := selfTimes(spans)
	out := map[string]*layerStat{}
	for _, s := range spans {
		st := out[s.Name]
		if st == nil {
			st = &layerStat{Name: s.Name}
			out[s.Name] = st
		}
		st.Count++
		st.Total += s.dur()
		st.Self += self[s.ID]
		st.Work += s.Work
	}
	return out
}

// writeSpans writes the spans as JSON lines to path.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			_ = f.Close()
			return fmt.Errorf("writing spans: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		_ = f.Close()
		return fmt.Errorf("writing spans: %w", err)
	}
	return f.Close()
}
