package main

import (
	"bytes"
	"context"
	"fmt"
	"sync"
	"time"

	"repro/drange"
)

// sampleBytes is how many delivered bytes each client keeps for the
// statistical check and the layer replays.
const sampleBytes = 16 << 10

// tier is one serving tier's traffic in a timed phase.
type tier struct {
	lat    []float64 // request latencies in ms; failed requests are +Inf
	bytes  int64
	sample []byte
}

func (t *tier) add(o *tier) {
	t.lat = append(t.lat, o.lat...)
	t.bytes += o.bytes
	t.keep(o.sample)
}

// record counts one request: a failed one as an infinite latency, a
// successful one with the bytes it delivered.
func (t *tier) record(ms float64, p []byte, err error) {
	if err != nil {
		t.lat = append(t.lat, failedSample)
		return
	}
	t.lat = append(t.lat, ms)
	t.bytes += int64(len(p))
	t.keep(p)
}

// keep appends delivered bytes to the sample until it holds sampleBytes.
func (t *tier) keep(p []byte) {
	if n := sampleBytes - len(t.sample); n > 0 {
		t.sample = append(t.sample, p[:min(len(p), n)]...)
	}
}

// counters is the part of a source's Stats the per-layer metrics use.
type counters struct {
	harvested           int64
	simNS               float64
	trips, credited     int64
	reseeds             int64
	rawBytes, drbgBytes int64
}

func countersOf(st drange.Stats) counters {
	c := counters{harvested: st.BitsHarvested, rawBytes: st.TierRaw.Bytes, drbgBytes: st.TierDRBG.Bytes}
	for _, s := range st.Shards {
		c.simNS += s.SimNS
	}
	if st.Health != nil {
		c.trips = st.Health.TotalTrips
	}
	if st.DRBG != nil {
		c.credited = st.DRBG.Credit.CreditedBits
		c.reseeds = st.DRBG.Reseeds
	}
	return c
}

func (c *counters) add(o counters, sign int64) {
	c.harvested += sign * o.harvested
	c.simNS += float64(sign) * o.simNS
	c.trips += sign * o.trips
	c.credited += sign * o.credited
	c.reseeds += sign * o.reseeds
	c.rawBytes += sign * o.rawBytes
	c.drbgBytes += sign * o.drbgBytes
}

// phase is the outcome of one timed phase.
type phase struct {
	wall      time.Duration
	raw, drbg tier
	opens     []float64 // open-cycle Open latencies, ms
	counts    counters  // source counters accumulated over the phase
	devOps    drange.DeviceStats
	final     drange.Stats
	// pins is the simulated rate of the served source, or of each profile
	// for open cycles.
	pins     []simPin
	failures []string
}

// runner carries one run's state.
type runner struct {
	w        *workload
	seed     uint64
	seconds  time.Duration
	devs     []device
	ops      ledger
	setupS   []float64
	charS    []float64
	opens    []float64
	profiles []*drange.Profile
	// sums[i] is every setup repetition's checksum of device i.
	sums     [][]string
	failures []string
}

type simPin struct {
	mbps, lat64NS float64
}

func (r *runner) fail(format string, args ...any) {
	r.failures = append(r.failures, fmt.Sprintf(format, args...))
}

// timedOpen opens a source, recording the attempt and its latency.
func timedOpen(opens *[]float64, ops *ledger, open func() (drange.Source, error)) (drange.Source, error) {
	t0 := time.Now()
	src, err := open()
	*opens = append(*opens, ms(time.Since(t0)))
	return src, ops.record(err)
}

// ms converts a duration to milliseconds, keeping every digit.
func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// setup characterizes the device set and opens the served source,
// setupReps times; every source but the last opened is closed again.
func (r *runner) setup(ctx context.Context, sb *spanBuf) (drange.Source, error) {
	r.sums = make([][]string, len(r.devs))
	var src drange.Source
	for k := 0; k < setupReps; k++ {
		rep := sb.newID()
		t0 := time.Now()
		ps := make([]*drange.Profile, len(r.devs))
		for i, d := range r.devs {
			c0 := time.Now()
			p, err := drange.Characterize(ctx, characterizeOptions(d, r.w.region)...)
			sb.record(rep, 0, "drange.Characterize", c0, time.Now())
			if err := r.ops.record(err); err != nil {
				return nil, fmt.Errorf("characterizing %s serial %d: %w", d.manufacturer, d.serial, err)
			}
			ps[i] = p
			r.sums[i] = append(r.sums[i], p.Checksum)
		}
		t1 := time.Now()
		var s drange.Source
		for o := 0; o < opensPerSetup; o++ {
			if s != nil {
				if err := r.ops.record(s.Close()); err != nil {
					return nil, fmt.Errorf("closing: %w", err)
				}
				devices.retire()
			}
			o0 := time.Now()
			var err error
			s, err = r.w.open(ctx, ps, &r.ops, &r.opens)
			sb.record(rep, 0, "drange.Open", o0, time.Now())
			if err != nil {
				return nil, fmt.Errorf("opening: %w", err)
			}
		}
		t2 := time.Now()
		sb.add(rep, 0, 0, "setup", t0, t2)
		r.charS = append(r.charS, t1.Sub(t0).Seconds())
		r.setupS = append(r.setupS, t2.Sub(t0).Seconds())
		if k < setupReps-1 && s != nil {
			if err := r.ops.record(s.Close()); err != nil {
				return nil, fmt.Errorf("closing: %w", err)
			}
			devices.retire()
		}
		src, r.profiles = s, ps
	}
	return src, nil
}

// client is one closed-loop client's private results.
type client struct {
	raw, drbg tier
	opens     []float64
	counts    counters
	// pins and first hold each profile's simulated rate and delivered bytes
	// from its first open cycle.
	pins     map[int]simPin
	first    map[int][]byte
	failures []string
}

// runPhase drives the workload's clients against src for r.seconds.
func (r *runner) runPhase(ctx context.Context, src drange.Source, tr *tracer) *phase {
	ph := &phase{}
	devices.mark()
	var before counters
	if src != nil {
		before = countersOf(src.Stats())
	}
	sb := tr.buf()
	root := sb.newID()
	start := time.Now()
	deadline := start.Add(r.seconds)

	clients := make([]*client, len(r.w.clients))
	var wg sync.WaitGroup
	for i, kind := range r.w.clients {
		c := &client{pins: map[int]simPin{}, first: map[int][]byte{}}
		clients[i] = c
		wg.Add(1)
		go func(i int, kind clientKind) {
			defer wg.Done()
			r.drive(ctx, kind, i, src, c, deadline, tr.buf(), root)
		}(i, kind)
	}
	wg.Wait()
	ph.wall = time.Since(start)
	sb.add(root, 0, 0, "phase", start, time.Now())

	for _, c := range clients {
		ph.raw.add(&c.raw)
		ph.drbg.add(&c.drbg)
		ph.opens = append(ph.opens, c.opens...)
		ph.counts.add(c.counts, 1)
		ph.failures = append(ph.failures, c.failures...)
	}
	if src != nil {
		ph.final = src.Stats()
		ph.counts.add(countersOf(ph.final), 1)
		ph.counts.add(before, -1)
		ph.pins = []simPin{{ph.final.AggregateThroughputMbps, ph.final.Latency64NS}}
	} else {
		for i := range r.profiles {
			ph.pins = append(ph.pins, clients[0].pins[i])
		}
	}
	ph.devOps = devices.since()
	return ph
}

// drive runs one client's closed loop until deadline: each request starts
// only after the previous one returned.
func (r *runner) drive(ctx context.Context, kind clientKind, idx int, src drange.Source, c *client, deadline time.Time, sb *spanBuf, parent int64) {
	buf := make([]byte, readSize)
	self := sb.newID()
	start := time.Now()
	for n := int64(1); time.Now().Before(deadline); n++ {
		req := int64(idx)<<40 | n
		switch kind {
		case readRaw:
			t0 := time.Now()
			_, err := src.ReadRaw(buf)
			t1 := time.Now()
			sb.record(self, req, "drange.ReadRaw", t0, t1)
			c.raw.record(ms(t1.Sub(t0)), buf, r.ops.record(err))
		case read:
			t0 := time.Now()
			_, err := src.Read(buf)
			t1 := time.Now()
			sb.record(self, req, "drange.Read", t0, t1)
			t := &c.raw
			if r.w.drbg {
				t = &c.drbg
			}
			t.record(ms(t1.Sub(t0)), buf, r.ops.record(err))
		case openCycle:
			r.openCycle(ctx, int(n-1)%len(r.profiles), req, c, buf, sb, self)
		}
	}
	sb.add(self, parent, 0, "client", start, time.Now())
}

// openCycle opens profile i, reads readSize raw bytes and closes the source.
func (r *runner) openCycle(ctx context.Context, i int, req int64, c *client, buf []byte, sb *spanBuf, parent int64) {
	t0 := time.Now()
	src, err := drange.Open(ctx, r.profiles[i], drange.WithBackend(countingBackend, nil))
	t1 := time.Now()
	sb.record(parent, req, "drange.Open", t0, t1)
	c.opens = append(c.opens, ms(t1.Sub(t0)))
	if r.ops.record(err) != nil {
		c.raw.record(0, nil, err)
		return
	}
	_, err = src.ReadRaw(buf)
	t2 := time.Now()
	sb.record(parent, req, "drange.ReadRaw", t1, t2)
	// Every open of a profile replays the same deterministic noise, so only
	// a profile's first bytes count towards the statistical sample; later
	// cycles must repeat them exactly.
	lat := ms(t2.Sub(t1))
	first, seen := c.first[i]
	switch {
	case r.ops.record(err) != nil:
		c.raw.record(lat, nil, err)
	case !seen:
		c.first[i] = append([]byte(nil), buf...)
		c.raw.record(lat, buf, nil)
	default:
		if !bytes.Equal(first, buf) {
			c.failures = append(c.failures, fmt.Sprintf("profile %d: reopening served different bytes under deterministic noise", i))
		}
		c.raw.lat = append(c.raw.lat, lat)
		c.raw.bytes += int64(len(buf))
	}
	st := src.Stats()
	c.counts.add(countersOf(st), 1)
	if !seen {
		c.pins[i] = simPin{st.AggregateThroughputMbps, st.Latency64NS}
	}
	if err == nil {
		checkConservation(st, func(msg string) { c.failures = append(c.failures, msg) })
	}
	t3 := time.Now()
	r.ops.record(src.Close())
	sb.record(parent, req, "drange.Close", t3, time.Now())
	devices.retire()
}

// checkConservation reports a violation of the tier identity: every
// delivered bit was served by exactly one tier.
func checkConservation(st drange.Stats, fail func(string)) {
	if got := (st.TierRaw.Bytes + st.TierDRBG.Bytes) * 8; got != st.BitsDelivered {
		fail(fmt.Sprintf("tier conservation: (raw %d + drbg %d bytes) * 8 = %d != %d bits delivered",
			st.TierRaw.Bytes, st.TierDRBG.Bytes, got, st.BitsDelivered))
	}
}
