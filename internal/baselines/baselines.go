// Package baselines implements the prior DRAM-based TRNG proposals the paper
// compares against in Table 2:
//
//   - Pyo+ (2009): randomness harvested from non-determinism in DRAM command
//     scheduling under refresh contention.
//   - Keller+ (2014) and Sutar+ (2018): randomness harvested from DRAM data
//     retention failures after disabling refresh for tens of seconds.
//   - Tehranipoor+ (2016) / Eckert+ (2017): randomness harvested from DRAM
//     startup values after a power cycle.
//
// Each baseline produces bits against the same simulated DRAM substrate and
// reports the latency, energy and peak-throughput figures used in Table 2.
package baselines

import (
	"crypto/sha256"
	"fmt"

	"repro/internal/device"
	"repro/internal/dram"
	"repro/internal/power"
	"repro/internal/timing"
)

// Metrics summarises one TRNG design for the Table 2 comparison.
type Metrics struct {
	Name string
	Year int
	// EntropySource describes where the randomness comes from.
	EntropySource string
	// TrueRandom reports whether the entropy source is fundamentally
	// non-deterministic (the paper argues command scheduling is not).
	TrueRandom bool
	// StreamingCapable reports whether the design sustains continuous
	// operation without a power cycle.
	StreamingCapable bool
	// Latency64NS is the time to produce a 64-bit random value, in
	// nanoseconds.
	Latency64NS float64
	// EnergyPerBitNJ is the marginal energy per random bit, in nanojoules.
	EnergyPerBitNJ float64
	// PeakThroughputMbps is the peak random-number throughput in Mb/s.
	PeakThroughputMbps float64
}

// CommandScheduleTRNG models Pyo et al.: one byte of "random" data harvested
// every HarvestCycles processor cycles from access-latency jitter caused by
// refresh contention.
type CommandScheduleTRNG struct {
	// CPUFrequencyGHz is the processor frequency the harvesting loop runs
	// at (the paper scales the original work to a 5 GHz part).
	CPUFrequencyGHz float64
	// HarvestCycles is the number of CPU cycles needed to harvest one byte
	// (45000 in the original work).
	HarvestCycles float64
	// Channels is the number of DRAM channels harvested in parallel (the
	// paper gives the benefit of the doubt with 4).
	Channels int
}

// NewCommandScheduleTRNG returns the configuration the paper uses when
// scaling Pyo et al. to a modern system: a 5 GHz CPU, 45000 cycles per byte,
// 4 DRAM channels.
func NewCommandScheduleTRNG() CommandScheduleTRNG {
	return CommandScheduleTRNG{CPUFrequencyGHz: 5.0, HarvestCycles: 45000, Channels: 4}
}

// Metrics returns the Table 2 row for the command-scheduling TRNG.
func (c CommandScheduleTRNG) Metrics() (Metrics, error) {
	if c.CPUFrequencyGHz <= 0 || c.HarvestCycles <= 0 || c.Channels <= 0 {
		return Metrics{}, fmt.Errorf("baselines: command-schedule TRNG misconfigured: %+v", c)
	}
	nsPerByte := c.HarvestCycles / c.CPUFrequencyGHz
	throughputMbps := 8.0 / nsPerByte * 1000 * float64(c.Channels)
	latency64 := nsPerByte * 8 / float64(c.Channels)
	return Metrics{
		Name:               "Pyo+ (command schedule)",
		Year:               2009,
		EntropySource:      "DRAM command scheduling",
		TrueRandom:         false,
		StreamingCapable:   true,
		Latency64NS:        latency64,
		EnergyPerBitNJ:     0, // system-dependent; the paper does not compare it
		PeakThroughputMbps: throughputMbps,
	}, nil
}

// Harvest returns n pseudo-random bits from scheduling jitter. The output is
// deliberately modelled as a deterministic function of system state (the
// memory-access interleaving), which is why the paper classifies this design
// as not fully non-deterministic.
func (c CommandScheduleTRNG) Harvest(dev device.Device, n int) ([]byte, error) {
	// One harvest observes at most one access per DRAM cell's worth of
	// schedule slots; bound the request before allocating caller-controlled
	// amounts of memory.
	if err := checkHarvestSize(dev, n, func(g dram.Geometry) int { return g.CellsPerDevice() }, "schedule slots"); err != nil {
		return nil, err
	}
	// Access latencies alternate deterministically with refresh position;
	// harvest the LSB of a synthetic latency counter.
	bits := make([]byte, n)
	state := dev.Serial()*2654435761 + 12345
	for i := range bits {
		// The latency pattern repeats with the refresh period; an adversary
		// observing the schedule can reproduce it.
		state = state*6364136223846793005 + 1442695040888963407
		bits[i] = byte((state >> 17) & 1)
	}
	return bits, nil
}

// RetentionTRNG models Keller+/Sutar+: disable refresh over a DRAM block,
// wait tens of seconds for retention failures to accumulate, read the block
// and hash it down to a short true-random string.
type RetentionTRNG struct {
	// WaitSeconds is the refresh-disabled wait (40 s in Sutar+).
	WaitSeconds float64
	// BlockBytes is the size of the DRAM block that is read and hashed
	// (4 MiB in Sutar+).
	BlockBytes int
	// OutputBits is the number of random bits extracted per wait period
	// (256 in Sutar+).
	OutputBits int
}

// NewRetentionTRNG returns the Sutar+ configuration used in Table 2.
func NewRetentionTRNG() RetentionTRNG {
	return RetentionTRNG{WaitSeconds: 40, BlockBytes: 4 << 20, OutputBits: 256}
}

// Metrics returns the Table 2 row for the retention-failure TRNG, using the
// supplied power model for the energy estimate.
func (r RetentionTRNG) Metrics(p timing.Params, m power.Model) (Metrics, error) {
	if r.WaitSeconds <= 0 || r.BlockBytes <= 0 || r.OutputBits <= 0 {
		return Metrics{}, fmt.Errorf("baselines: retention TRNG misconfigured: %+v", r)
	}
	waitNS := r.WaitSeconds * 1e9
	// Energy: the device sits in precharge standby for the whole wait.
	idleNJ := m.IdleEnergyNJ(p, p.Cycles(waitNS))
	energyPerBit := idleNJ / float64(r.OutputBits)
	throughputMbps := float64(r.OutputBits) / waitNS * 1000
	return Metrics{
		Name:               "Sutar+ (data retention)",
		Year:               2018,
		EntropySource:      "DRAM data retention failures",
		TrueRandom:         true,
		StreamingCapable:   true,
		Latency64NS:        waitNS,
		EnergyPerBitNJ:     energyPerBit,
		PeakThroughputMbps: throughputMbps,
	}, nil
}

// Harvest models one retention round: it perturbs a block of the device's
// stored data with retention-style failures derived from cell variation and
// the device noise source, then hashes the block to OutputBits bits.
func (r RetentionTRNG) Harvest(dev device.Device, noise dram.NoiseSource) ([]byte, error) {
	if dev == nil {
		return nil, fmt.Errorf("baselines: nil device")
	}
	if noise == nil {
		noise = dram.NewPhysicalNoise()
	}
	g := dev.Geometry()
	rowBytes := g.ColsPerRow / 8
	rowsNeeded := r.BlockBytes / rowBytes
	if rowsNeeded < 1 {
		rowsNeeded = 1
	}
	if rowsNeeded > g.RowsPerBank {
		rowsNeeded = g.RowsPerBank
	}
	h := sha256.New()
	for row := 0; row < rowsNeeded; row++ {
		data, err := dev.StartupRow(0, row)
		if err != nil {
			return nil, err
		}
		// Retention failures: a sparse, noise-driven set of bit flips whose
		// positions depend on per-cell variation.
		buf := make([]byte, 0, len(data)*8)
		for i, w := range data {
			if noise.Gaussian() > 2.0 {
				w ^= 1 << uint((i*7)%64)
			}
			for b := 0; b < 8; b++ {
				buf = append(buf, byte(w>>uint(8*b)))
			}
		}
		h.Write(buf)
	}
	digest := h.Sum(nil)
	outBits := make([]byte, 0, r.OutputBits)
	for i := 0; i < r.OutputBits; i++ {
		byteIdx := (i / 8) % len(digest)
		outBits = append(outBits, (digest[byteIdx]>>uint(i%8))&1)
	}
	return outBits, nil
}

// StartupTRNG models Tehranipoor+/Eckert+: random bits harvested from DRAM
// power-up values. It requires a power cycle per harvest, so it is not
// streaming-capable.
type StartupTRNG struct {
	// RegionBytes is the amount of DRAM read after power-up (1 MiB in the
	// original work).
	RegionBytes int
	// EntropyBitsPerMiB is the number of usable random bits per mebibyte of
	// startup data (420 Kbit in Tehranipoor+).
	EntropyBitsPerMiB int
}

// NewStartupTRNG returns the Tehranipoor+ configuration used in Table 2.
func NewStartupTRNG() StartupTRNG {
	return StartupTRNG{RegionBytes: 1 << 20, EntropyBitsPerMiB: 420 << 10}
}

// Metrics returns the Table 2 row for the startup-value TRNG.
func (s StartupTRNG) Metrics(p timing.Params, m power.Model) (Metrics, error) {
	if s.RegionBytes <= 0 || s.EntropyBitsPerMiB <= 0 {
		return Metrics{}, fmt.Errorf("baselines: startup TRNG misconfigured: %+v", s)
	}
	// The paper optimistically ignores the DRAM initialisation sequence and
	// charges only a single read burst (~60 ns) as the latency floor.
	readLatencyNS := p.TRCD + p.TCL + p.NS(p.BurstCycles())
	mib := float64(s.RegionBytes) / float64(1<<20)
	totalBits := mib * float64(s.EntropyBitsPerMiB)
	// Energy: read the whole region once.
	wordsToRead := float64(s.RegionBytes*8) / float64(p.WordBits())
	readEnergyNJ := wordsToRead * (m.IDD4R - m.IDD3N) * m.VDD * p.NS(p.BurstCycles()) / 1000
	return Metrics{
		Name:               "Tehranipoor+ (startup values)",
		Year:               2016,
		EntropySource:      "DRAM power-up values",
		TrueRandom:         true,
		StreamingCapable:   false,
		Latency64NS:        readLatencyNS,
		EnergyPerBitNJ:     readEnergyNJ / totalBits,
		PeakThroughputMbps: 0, // no continuous throughput: requires a power cycle
	}, nil
}

// Harvest reads the startup values of the first rows of bank 0 and returns
// up to n bits. A second harvest without a power cycle returns the same
// values, which is why the design cannot stream.
func (s StartupTRNG) Harvest(dev device.Device, n int) ([]byte, error) {
	// The harvest reads bank 0 only, so the device can supply at most one
	// bank's worth of startup bits. Validate before allocating: n is
	// caller-controlled and an unconditional prealloc of n bytes lets a
	// single oversized request (e.g. 1<<40) kill the process.
	if err := checkHarvestSize(dev, n, func(g dram.Geometry) int { return g.CellsPerBank() }, "startup bits"); err != nil {
		return nil, err
	}
	g := dev.Geometry()
	bits := make([]byte, 0, n)
	for row := 0; row < g.RowsPerBank && len(bits) < n; row++ {
		data, err := dev.StartupRow(0, row)
		if err != nil {
			return nil, err
		}
		for _, w := range data {
			for b := 0; b < 64 && len(bits) < n; b++ {
				bits = append(bits, byte((w>>uint(b))&1))
			}
			if len(bits) >= n {
				break
			}
		}
	}
	if len(bits) < n {
		return nil, fmt.Errorf("baselines: device too small for %d startup bits", n)
	}
	return bits, nil
}

// DRangeRow builds the D-RaNGe row of Table 2 from measured values.
func DRangeRow(latency64NS, energyPerBitNJ, peakThroughputMbps float64) Metrics {
	return Metrics{
		Name:               "D-RaNGe (activation failures)",
		Year:               2018,
		EntropySource:      "DRAM activation failures",
		TrueRandom:         true,
		StreamingCapable:   true,
		Latency64NS:        latency64NS,
		EnergyPerBitNJ:     energyPerBitNJ,
		PeakThroughputMbps: peakThroughputMbps,
	}
}

// Table2 assembles the full comparison table given D-RaNGe's measured
// figures.
func Table2(p timing.Params, m power.Model, drange Metrics) ([]Metrics, error) {
	pyo, err := NewCommandScheduleTRNG().Metrics()
	if err != nil {
		return nil, err
	}
	retention, err := NewRetentionTRNG().Metrics(p, m)
	if err != nil {
		return nil, err
	}
	keller := retention
	keller.Name = "Keller+ (data retention)"
	keller.Year = 2014
	startup, err := NewStartupTRNG().Metrics(p, m)
	if err != nil {
		return nil, err
	}
	return []Metrics{pyo, keller, startup, retention, drange}, nil
}

// checkHarvestSize is the shared harvest-request validation: the device must
// be present, the bit count positive, and the request within the harvest
// capacity computed from the device geometry. Validating before allocating
// matters because n is caller-controlled: a single oversized request must
// fail loudly instead of preallocating its output buffer.
func checkHarvestSize(dev device.Device, n int, capacity func(dram.Geometry) int, what string) error {
	if dev == nil {
		return fmt.Errorf("baselines: nil device")
	}
	if n <= 0 {
		return fmt.Errorf("baselines: bit count must be positive, got %d", n)
	}
	if max := capacity(dev.Geometry()); n > max {
		return fmt.Errorf("baselines: %d bits exceed the device's harvest capacity of %d %s", n, max, what)
	}
	return nil
}
