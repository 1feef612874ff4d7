package main

import (
	"testing"
	"time"
)

func TestSelfTimeSubtractsCoveredChildTime(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "op", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "b", Start: 20, End: 50},  // overlaps a
		{ID: 4, Parent: 1, Name: "c", Start: 90, End: 120}, // runs past its parent
		{ID: 5, Parent: 3, Name: "d", Start: 25, End: 35},
	}
	self := selfTimes(spans)
	want := map[int64]time.Duration{1: 50, 2: 20, 3: 20, 4: 30, 5: 10}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("span %d self = %v, want %v", id, self[id], w)
		}
	}
	agg := aggregate(spans)
	if st := agg["op"]; st.Count != 1 || st.Total != 100 || st.Self != 50 {
		t.Errorf("aggregate op = %+v", st)
	}
}

func TestNilTracerRecordsNothing(t *testing.T) {
	var tr *tracer
	tr.start("x", 0, 1).end(5)
	tr.add("y", 0, 1, time.Now(), time.Now(), 0)
	if tr.snapshot() != nil {
		t.Error("nil tracer returned spans")
	}
}

func TestTracerKeepsParentAndRequest(t *testing.T) {
	tr := newTracer()
	root := tr.start("op", 0, 7)
	child := tr.start("layer", root.id, 7)
	child.end(3)
	root.end(3)
	spans := tr.snapshot()
	if len(spans) != 2 || spans[0].Parent != root.id || spans[0].Req != 7 || spans[0].Work != 3 || spans[1].Parent != 0 {
		t.Errorf("spans = %+v", spans)
	}
}
