package main

import (
	"bufio"
	"compress/gzip"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call the benchmark makes into the program. Spans of one
// request share Req; Parent is the enclosing span's ID (0 for roots).
type span struct {
	ID     int64         `json:"id"`
	Parent int64         `json:"parent,omitempty"`
	Req    int64         `json:"req,omitempty"`
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

// tracer keeps every span in memory until the run ends. A nil *tracer
// records nothing, which is how untraced runs measure end-to-end numbers.
type tracer struct {
	t0  time.Time
	ids atomic.Int64

	mu    sync.Mutex
	bufs  []*spanBuf
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// spanBuf is one goroutine's span buffer, so clients record without locking.
type spanBuf struct {
	tr    *tracer
	spans []span
}

// buf returns a new per-goroutine buffer (nil when tracing is off).
func (t *tracer) buf() *spanBuf {
	if t == nil {
		return nil
	}
	b := &spanBuf{tr: t}
	t.mu.Lock()
	t.bufs = append(t.bufs, b)
	t.mu.Unlock()
	return b
}

// newID reserves a span ID, so a parent can be named before it ends.
func (b *spanBuf) newID() int64 {
	if b == nil {
		return 0
	}
	return b.tr.ids.Add(1)
}

// add records a finished span with a reserved ID and returns the ID.
func (b *spanBuf) add(id, parent, req int64, name string, start, end time.Time) int64 {
	if b == nil {
		return 0
	}
	b.spans = append(b.spans, span{ID: id, Parent: parent, Req: req, Name: name,
		Start: start.Sub(b.tr.t0), End: end.Sub(b.tr.t0)})
	return id
}

// record records a finished span under a fresh ID and returns the ID.
func (b *spanBuf) record(parent, req int64, name string, start, end time.Time) int64 {
	return b.add(b.newID(), parent, req, name, start, end)
}

// collect merges every buffer; call it once all recording goroutines ended.
func (t *tracer) collect() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, b := range t.bufs {
		t.spans = append(t.spans, b.spans...)
		b.spans = nil
	}
	sort.Slice(t.spans, func(i, j int) bool { return t.spans[i].ID < t.spans[j].ID })
	return t.spans
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval covered by its children, where overlapping children (two
// clients under one phase) count once.
func selfTimes(spans []span) map[int64]time.Duration {
	type iv struct{ s, e time.Duration }
	children := map[int64][]iv{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], iv{s.Start, s.End})
		}
	}
	out := make(map[int64]time.Duration, len(spans))
	for _, s := range spans {
		ivs := children[s.ID]
		sort.Slice(ivs, func(i, j int) bool { return ivs[i].s < ivs[j].s })
		var covered time.Duration
		curS, curE := time.Duration(0), time.Duration(-1)
		for _, c := range ivs {
			// Clip each child to the parent's interval.
			if c.s < s.Start {
				c.s = s.Start
			}
			if c.e > s.End {
				c.e = s.End
			}
			if c.e <= c.s {
				continue
			}
			if c.s > curE {
				if curE > curS {
					covered += curE - curS
				}
				curS, curE = c.s, c.e
			} else if c.e > curE {
				curE = c.e
			}
		}
		if curE > curS {
			covered += curE - curS
		}
		out[s.ID] = s.End - s.Start - covered
	}
	return out
}

// selfByName returns every span's self time in seconds, grouped by name.
func selfByName(spans []span) map[string][]float64 {
	self := selfTimes(spans)
	out := map[string][]float64{}
	for _, s := range spans {
		out[s.Name] = append(out[s.Name], self[s.ID].Seconds())
	}
	return out
}

// writeSpans writes spans as gzip-compressed JSON lines.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	zw := gzip.NewWriter(f)
	bw := bufio.NewWriter(zw)
	enc := json.NewEncoder(bw)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := zw.Close(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
