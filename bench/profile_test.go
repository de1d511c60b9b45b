package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"runtime/pprof"
	"strings"
	"testing"
)

// pb is a tiny protobuf encoder for building test profiles.
type pb struct{ b []byte }

func (p *pb) varint(field int, v uint64) *pb {
	p.b = binary.AppendUvarint(binary.AppendUvarint(p.b, uint64(field)<<3), v)
	return p
}

func (p *pb) bytes(field int, data []byte) *pb {
	p.b = binary.AppendUvarint(binary.AppendUvarint(p.b, uint64(field)<<3|2), uint64(len(data)))
	p.b = append(p.b, data...)
	return p
}

func (p *pb) packed(field int, vs ...uint64) *pb {
	var q []byte
	for _, v := range vs {
		q = binary.AppendUvarint(q, v)
	}
	return p.bytes(field, q)
}

// testProfile builds a two-value (count, nanoseconds) profile: one sample
// per stack, each stack listed leaf first. Every frame gets its own
// location except that a pair joined by "+" shares one location as an
// inlined call (callee first), as the runtime writes inlined frames.
func testProfile(t *testing.T, stacks [][]string, ns []int64, gzipped bool) []byte {
	t.Helper()
	out := &pb{}
	strs := []string{""}
	funcID := map[string]uint64{}
	locID := map[string]uint64{}
	fn := func(name string) uint64 {
		if id, ok := funcID[name]; ok {
			return id
		}
		strs = append(strs, name)
		id := uint64(len(funcID) + 1)
		funcID[name] = id
		out.bytes(5, (&pb{}).varint(1, id).varint(2, uint64(len(strs)-1)).b)
		return id
	}
	loc := func(frame string) uint64 {
		if id, ok := locID[frame]; ok {
			return id
		}
		id := uint64(len(locID) + 1)
		locID[frame] = id
		m := (&pb{}).varint(1, id)
		for _, name := range strings.Split(frame, "+") {
			m.bytes(4, (&pb{}).varint(1, fn(name)).varint(2, 10).b)
		}
		out.bytes(4, m.b)
		return id
	}
	for i, stack := range stacks {
		var ids []uint64
		for _, f := range stack {
			ids = append(ids, loc(f))
		}
		s := &pb{}
		if len(ids) > 2 {
			s.packed(1, ids...)
		} else {
			for _, id := range ids {
				s.varint(1, id)
			}
		}
		s.packed(2, 1, uint64(ns[i]))
		out.bytes(2, s.b)
	}
	for _, s := range strs {
		out.bytes(6, []byte(s))
	}
	if !gzipped {
		return out.b
	}
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	zw.Write(out.b)
	zw.Close()
	return buf.Bytes()
}

func TestGroupCPUByLeafPackage(t *testing.T) {
	const (
		fill     = "repro/internal/pattern.Pattern.FillRow"
		run      = "repro/internal/profiler.Run"
		inject   = "repro/internal/dram.(*Device).injectFailuresLocked"
		readWord = "repro/internal/dram.(*Device).ReadWordInto"
		mutex    = "sync.(*Mutex).Lock"
		ring     = "repro/internal/core.(*Engine).ReadPacked"
	)
	raw := testProfile(t, [][]string{
		// A preempted FillRow loop belongs to pattern, not the runtime.
		{"runtime.asyncPreempt", fill, run},
		{fill, run},
		// math inlined into the dram sampler is dram's time.
		{"math.archLog+" + inject, readWord},
		// Allocation and GC stay with the runtime.
		{"runtime.mallocgc", inject},
		{"runtime.gcBgMarkWorker"},
		// A lock taken by the engine is the engine's CPU.
		{mutex, ring},
		// The benchmark's own frames.
		{"main.(*runner).drive"},
		{"time.Now"},
	}, []int64{1e9, 2e9, 3e9, 4e8, 1e8, 5e8, 7e8, 6e8}, true)
	p, err := parseProfile(raw)
	if err != nil {
		t.Fatal(err)
	}
	if got := p.samples[2].frames; len(got) != 3 || got[0] != "math.archLog" || got[1] != inject {
		t.Fatalf("inlined frames decoded as %q", got)
	}
	g := groupSeconds(p, 1, cpuModule)
	for mod, want := range map[string]float64{
		"pattern": 3, "dram": 3, "runtime": 0.5, "core": 0.5, "bench": 0.7, "other": 0.6,
	} {
		if got := g[mod]; got < want-1e-9 || got > want+1e-9 {
			t.Errorf("%s: %v s, want %v", mod, got, want)
		}
	}
	if len(g) != 6 {
		t.Errorf("modules %v", g)
	}
}

func TestLockWaitDropsIdleBlocking(t *testing.T) {
	raw := testProfile(t, [][]string{
		{"sync.(*Mutex).Lock", "repro/drange.(*servingCore).Read", "main.(*runner).drive"},
		{"runtime.chanrecv1", "repro/drange.(*servingCore).recharacterizer"},
		{"runtime.selectgo", "repro/internal/core.(*Engine).runShard"},
		{"sync.(*RWMutex).RLock", "repro/internal/dram.(*Device).ReadWordInto"},
	}, []int64{2e9, 5e9, 7e9, 1e9}, false)
	p, err := parseProfile(raw)
	if err != nil {
		t.Fatal(err)
	}
	g := groupSeconds(p, 1, lockWait)
	if g["drange"] != 2 || g["dram"] != 1 || g["idle"] != 12 || g["core"] != 0 {
		t.Errorf("lock waits %v", g)
	}
}

func TestParseRuntimeProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.Lookup("goroutine").WriteTo(&buf, 0); err != nil {
		t.Fatal(err)
	}
	p, err := parseProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, s := range p.samples {
		for _, f := range s.frames {
			if strings.HasSuffix(f, ".TestParseRuntimeProfile") {
				found = true
			}
		}
	}
	if !found {
		t.Errorf("this test's frame is missing from %d goroutine samples", len(p.samples))
	}
}

func TestPkgAndModule(t *testing.T) {
	for fn, want := range map[string]string{
		"repro/internal/core.(*Engine).ReadPacked":   "core",
		"repro/drange.(*servingCore).readFast.func1": "drange",
		"repro/internal/pattern.Pattern.FillRow":     "pattern",
		"internal/runtime/atomic.(*Uint32).Load":     "runtime",
		"runtime.mallocgc":                           "runtime",
		"main.main":                                  "bench",
		"crypto/sha256.block":                        "",
	} {
		if got := moduleOf(pkgOf(fn)); got != want {
			t.Errorf("moduleOf(pkgOf(%q)) = %q, want %q", fn, got, want)
		}
	}
}
