package main

import (
	"testing"
	"time"
)

func TestSelfTimesOverlappingChildren(t *testing.T) {
	ms := func(v int) time.Duration { return time.Duration(v) * time.Millisecond }
	spans := []span{
		{ID: 1, Name: "phase", Start: ms(0), End: ms(100)},
		// Two clients overlap on [30, 40]; the third runs past the parent's
		// end and is clipped to it.
		{ID: 2, Parent: 1, Name: "client", Start: ms(10), End: ms(40)},
		{ID: 3, Parent: 1, Name: "client", Start: ms(30), End: ms(60)},
		{ID: 4, Parent: 1, Name: "client", Start: ms(80), End: ms(120)},
		// A grandchild only counts against its own parent.
		{ID: 5, Parent: 2, Name: "read", Start: ms(15), End: ms(25)},
		// A child nested entirely inside another covers nothing new.
		{ID: 6, Parent: 1, Name: "client", Start: ms(35), End: ms(38)},
	}
	self := selfTimes(spans)
	for id, want := range map[int64]time.Duration{
		1: ms(30), // 100 - ([10,60] + [80,100])
		2: ms(20), // 30 - 10
		3: ms(30),
		4: ms(40),
		5: ms(10),
		6: ms(3),
	} {
		if self[id] != want {
			t.Errorf("self(%d) = %v, want %v", id, self[id], want)
		}
	}
	byName := selfByName(spans)
	if n := len(byName["client"]); n != 4 {
		t.Errorf("%d client spans grouped, want 4", n)
	}
}

func TestTracerOffRecordsNothing(t *testing.T) {
	var tr *tracer
	sb := tr.buf()
	now := time.Now()
	if id := sb.record(0, 1, "x", now, now); id != 0 {
		t.Errorf("untraced record returned id %d", id)
	}
	if spans := tr.collect(); spans != nil {
		t.Errorf("untraced run collected %d spans", len(spans))
	}
}

func TestTracerCollectsAcrossBuffers(t *testing.T) {
	tr := newTracer()
	a, b := tr.buf(), tr.buf()
	root := a.newID()
	now := time.Now()
	b.record(root, 7, "child", now, now.Add(time.Millisecond))
	a.add(root, 0, 0, "root", now, now.Add(2*time.Millisecond))
	spans := tr.collect()
	if len(spans) != 2 || spans[0].Name != "root" || spans[1].Parent != root || spans[1].Req != 7 {
		t.Fatalf("collected %+v", spans)
	}
	if self := selfTimes(spans); self[root] != time.Millisecond {
		t.Errorf("root self time %v, want 1ms", self[root])
	}
}
