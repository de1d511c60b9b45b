package main

import (
	"math"

	"repro/internal/nist"
)

// defaultSeed is the seed whose outputs are pinned below.
const defaultSeed = 1

// monobitAlpha is the significance level of the delivered-bytes check: at
// 1e-6 a healthy source fails once in a million runs, while a stuck or
// biased one yields a p-value indistinguishable from zero.
const monobitAlpha = 1e-6

// monobitBytes is how much of each tier's delivered bytes the check tests.
// Characterization admits cells up to 2% off balance (MaxBiasDelta), and a
// raw stream that far off fails a monobit test of 16 KiB; over 1 KiB it
// sits below 4 sigma while a stuck or badly biased tier still fails. The
// DRBG tier has no such allowance.
var monobitBytes = map[string]int{"raw": 1 << 10, "drbg": 16 << 10}

// simTolerance is the relative tolerance of the simulated-rate pins: the
// per-iteration bits and time are exact, but a rate averaged over however
// many iterations a run harvested moves in the seventh digit.
const simTolerance = 1e-4

// pinned is what the program computes on the default seed: the profile
// checksum of every device, and the served source's simulated throughput
// (Eq. 1, Mb/s) and 64-bit latency (ns) — one entry per profile for open
// cycles. Simulated-time figures are checked here and never reported as
// host metrics.
var pinned = map[string]struct {
	checksums []string
	sim       []simPin
}{
	"characterize": {
		checksums: []string{
			"sha256:8b65faddee923f14a30e84c1d134eda4dcf5a8dc655349d3230c2885a00088d8",
			"sha256:424873e7d1f30f6ebc4e785c70f29c74372272afbcc499a050447c10e47558ce",
			"sha256:ef92d6c507fdf17b2d284b2c342a857ba1ebfb90f2ec1b7cb74c6e112def1e0d",
		},
		sim: []simPin{{23.466514187692088, 2727.29044834308}, {19.75999517578243, 3238.8671875}, {22.230949446799293, 2878.869395711501}},
	},
	"drbg-mixed": {
		checksums: []string{"sha256:8b65faddee923f14a30e84c1d134eda4dcf5a8dc655349d3230c2885a00088d8"},
		sim:       []simPin{{93.82720946694829, 682.1049071329861}},
	},
}

// near reports whether got is within simTolerance of want, relatively.
func near(got, want float64) bool {
	return math.Abs(got-want) <= simTolerance*math.Abs(want)
}

// check runs every correctness check of a run that reached its timed phase.
func (r *runner) check(ph *phase) {
	for i, sums := range r.sums {
		for _, s := range sums[1:] {
			if s != sums[0] {
				r.fail("device %d: characterization not deterministic: checksum %s then %s", i, sums[0], s)
			}
		}
	}
	for i, p := range r.profiles {
		if err := p.Validate(); err != nil {
			r.fail("device %d: profile invalid: %v", i, err)
		}
	}
	if r.seed == defaultSeed {
		pin, ok := pinned[r.w.name]
		if !ok {
			r.fail("no pinned outputs for workload %s", r.w.name)
		}
		for i, p := range r.profiles {
			if ok && (i >= len(pin.checksums) || p.Checksum != pin.checksums[i]) {
				r.fail("device %d: checksum %s differs from the pinned value", i, p.Checksum)
			}
		}
		for i, got := range ph.pins {
			if ok && (i >= len(pin.sim) || !near(got.mbps, pin.sim[i].mbps) || !near(got.lat64NS, pin.sim[i].lat64NS)) {
				r.fail("source %d: simulated %.6g Mb/s, %.6g ns per 64 bits differ from the pinned values", i, got.mbps, got.lat64NS)
			}
		}
	}
	r.failures = append(r.failures, ph.failures...)
	if ph.final.Shards != nil {
		checkConservation(ph.final, func(msg string) { r.fail("%s", msg) })
	}
	for _, t := range []*tier{&ph.raw, &ph.drbg} {
		for _, l := range t.lat {
			if math.IsInf(l, 1) {
				r.fail("read errors in the timed phase")
				break
			}
		}
	}
	if h := ph.final.Health; h != nil && h.TotalTrips != 0 {
		r.fail("healthy devices tripped %d health tests", h.TotalTrips)
	}
	for name, t := range map[string]*tier{"raw": &ph.raw, "drbg": &ph.drbg} {
		if len(t.lat) == 0 {
			continue
		}
		sample := t.sample[:min(len(t.sample), monobitBytes[name])]
		res, err := nist.Monobit(unpack(sample))
		if err != nil {
			r.fail("%s tier monobit: %v", name, err)
		} else if res.PValue < monobitAlpha {
			r.fail("%s tier monobit: p = %.3g over %d delivered bytes", name, res.PValue, len(sample))
		}
	}
}

// unpack expands bytes MSB-first into one 0/1 byte per bit.
func unpack(p []byte) []byte {
	out := make([]byte, 0, len(p)*8)
	for _, b := range p {
		for i := 7; i >= 0; i-- {
			out = append(out, (b>>uint(i))&1)
		}
	}
	return out
}
