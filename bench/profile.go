package main

// A minimal reader for the gzip-compressed protobuf profiles runtime/pprof
// writes: just enough of profile.proto (samples, locations with their
// inlined lines, functions, string table) to credit CPU and blocking time to
// the repository's modules. The standard library has no decoder and the
// benchmark takes no dependencies.

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// profile is a decoded pprof profile: each sample's stack is resolved to
// function names, leaf first, with inlined frames expanded.
type profile struct {
	samples []profSample
}

type profSample struct {
	frames []string
	values []int64
}

// pbReader walks one protobuf message.
type pbReader struct {
	b []byte
}

func (r *pbReader) varint() (uint64, error) {
	var x uint64
	for shift := uint(0); shift < 64; shift += 7 {
		if len(r.b) == 0 {
			return 0, errors.New("pprof: truncated varint")
		}
		c := r.b[0]
		r.b = r.b[1:]
		x |= uint64(c&0x7f) << shift
		if c < 0x80 {
			return x, nil
		}
	}
	return 0, errors.New("pprof: varint overflow")
}

// field returns the next field's number and wire type, with its payload:
// the value for varints, the bytes for length-delimited fields.
func (r *pbReader) field() (num int, wire int, val uint64, data []byte, err error) {
	key, err := r.varint()
	if err != nil {
		return 0, 0, 0, nil, err
	}
	num, wire = int(key>>3), int(key&7)
	switch wire {
	case 0:
		val, err = r.varint()
	case 1:
		if len(r.b) < 8 {
			return 0, 0, 0, nil, errors.New("pprof: truncated fixed64")
		}
		r.b = r.b[8:]
	case 2:
		var n uint64
		if n, err = r.varint(); err == nil {
			if n > uint64(len(r.b)) {
				return 0, 0, 0, nil, errors.New("pprof: truncated field")
			}
			data, r.b = r.b[:n], r.b[n:]
		}
	case 5:
		if len(r.b) < 4 {
			return 0, 0, 0, nil, errors.New("pprof: truncated fixed32")
		}
		r.b = r.b[4:]
	default:
		err = fmt.Errorf("pprof: unsupported wire type %d", wire)
	}
	return num, wire, val, data, err
}

// uints appends a repeated integer field in either packed or unpacked form.
func uints(dst []uint64, wire int, val uint64, data []byte) ([]uint64, error) {
	if wire == 0 {
		return append(dst, val), nil
	}
	r := pbReader{data}
	for len(r.b) > 0 {
		v, err := r.varint()
		if err != nil {
			return nil, err
		}
		dst = append(dst, v)
	}
	return dst, nil
}

// parseProfile decodes a gzip-compressed (or raw) pprof profile.
func parseProfile(raw []byte) (*profile, error) {
	if len(raw) >= 2 && raw[0] == 0x1f && raw[1] == 0x8b {
		zr, err := gzip.NewReader(bytes.NewReader(raw))
		if err != nil {
			return nil, fmt.Errorf("pprof: %w", err)
		}
		if raw, err = io.ReadAll(zr); err != nil {
			return nil, fmt.Errorf("pprof: %w", err)
		}
	}
	type rawSample struct {
		locs   []uint64
		values []uint64
	}
	var (
		samples []rawSample
		locs    = map[uint64][]uint64{} // location id -> function ids, leaf first
		funcs   = map[uint64]uint64{}   // function id -> name string index
		strs    []string
	)
	r := pbReader{raw}
	for len(r.b) > 0 {
		num, _, _, data, err := r.field()
		if err != nil {
			return nil, err
		}
		switch num {
		case 2: // Sample
			var s rawSample
			m := pbReader{data}
			for len(m.b) > 0 {
				n, w, v, d, err := m.field()
				if err != nil {
					return nil, err
				}
				switch n {
				case 1:
					s.locs, err = uints(s.locs, w, v, d)
				case 2:
					s.values, err = uints(s.values, w, v, d)
				}
				if err != nil {
					return nil, err
				}
			}
			samples = append(samples, s)
		case 4: // Location
			var id uint64
			var fns []uint64
			m := pbReader{data}
			for len(m.b) > 0 {
				n, _, v, d, err := m.field()
				if err != nil {
					return nil, err
				}
				switch n {
				case 1:
					id = v
				case 4: // Line: the first entry is the innermost inlined call
					l := pbReader{d}
					for len(l.b) > 0 {
						ln, _, lv, _, err := l.field()
						if err != nil {
							return nil, err
						}
						if ln == 1 {
							fns = append(fns, lv)
						}
					}
				}
			}
			locs[id] = fns
		case 5: // Function
			var id, name uint64
			m := pbReader{data}
			for len(m.b) > 0 {
				n, _, v, _, err := m.field()
				if err != nil {
					return nil, err
				}
				switch n {
				case 1:
					id = v
				case 2:
					name = v
				}
			}
			funcs[id] = name
		case 6: // string_table
			strs = append(strs, string(data))
		}
	}
	p := &profile{samples: make([]profSample, 0, len(samples))}
	for _, s := range samples {
		ps := profSample{values: make([]int64, len(s.values))}
		for i, v := range s.values {
			ps.values[i] = int64(v)
		}
		for _, loc := range s.locs {
			for _, fn := range locs[loc] {
				name := "?"
				if idx := funcs[fn]; idx < uint64(len(strs)) {
					name = strs[idx]
				}
				ps.frames = append(ps.frames, name)
			}
		}
		p.samples = append(p.samples, ps)
	}
	return p, nil
}

// pkgOf returns the import path of a fully qualified function name such as
// "repro/internal/core.(*Engine).ReadPacked".
func pkgOf(fn string) string {
	slash := strings.LastIndex(fn, "/")
	dot := strings.Index(fn[slash+1:], ".")
	if dot < 0 {
		return fn
	}
	return fn[:slash+1+dot]
}

// moduleOf names the module a package belongs to: the repository's packages
// by their last path element ("repro/internal/dram" is "dram",
// "repro/drange" is "drange"), the Go runtime as "runtime", the benchmark
// itself as "bench", and "" for the rest of the standard library.
func moduleOf(pkg string) string {
	switch {
	case pkg == "main":
		return "bench"
	case strings.HasPrefix(pkg, "repro/"):
		return pkg[strings.LastIndex(pkg, "/")+1:]
	case pkg == "runtime", strings.HasPrefix(pkg, "runtime/"),
		strings.HasPrefix(pkg, "internal/runtime/"):
		return "runtime"
	}
	return ""
}

// isPreempt reports frames the runtime injects when it asynchronously
// preempts a goroutine; the time belongs to the interrupted caller.
func isPreempt(fn string) bool {
	return strings.HasPrefix(fn, "runtime.asyncPreempt")
}

// firstRepoModule returns the module of the first repository or benchmark
// frame in frames, or "other".
func firstRepoModule(frames []string) string {
	for _, f := range frames {
		if m := moduleOf(pkgOf(f)); m != "" && m != "runtime" {
			return m
		}
	}
	return "other"
}

// cpuModule credits one CPU sample: to the leaf frame's module, where
// preemption frames are skipped and other standard-library leaves (math,
// sync, crypto, ...) are credited to the repository frame that called them.
// Runtime leaves (allocation, GC, scheduling) stay with "runtime".
func cpuModule(frames []string) string {
	for len(frames) > 0 && isPreempt(frames[0]) {
		frames = frames[1:]
	}
	if len(frames) == 0 {
		return "other"
	}
	if m := moduleOf(pkgOf(frames[0])); m != "" {
		return m
	}
	return firstRepoModule(frames)
}

// lockWait credits one blocking sample to the module that waited, when the
// wait was for a sync.Mutex or sync.RWMutex another goroutine held. Channel
// and condition waits are dropped ("idle"): producers parked on a full ring
// and background goroutines waiting for work block there without delaying
// any request.
func lockWait(frames []string) string {
	for _, f := range frames {
		if strings.HasPrefix(f, "sync.(*Mutex).") || strings.HasPrefix(f, "sync.(*RWMutex).") {
			return firstRepoModule(frames)
		}
	}
	return "idle"
}

// groupSeconds sums value index vi of every sample, in nanoseconds, into
// seconds per module as chosen by credit.
func groupSeconds(p *profile, vi int, credit func([]string) string) map[string]float64 {
	out := map[string]float64{}
	for _, s := range p.samples {
		if vi < len(s.values) {
			out[credit(s.frames)] += float64(s.values[vi]) / 1e9
		}
	}
	return out
}
