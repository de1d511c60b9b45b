package dram

import (
	"crypto/rand"
	"encoding/binary"
	"fmt"
	"math"
	"sync"
)

// NoiseSource supplies the per-access analog noise that makes activation
// failures non-deterministic. In real hardware this is thermal/sense-amplifier
// noise; here it is an abstraction with two implementations:
//
//   - PhysicalNoise draws from the operating system's entropy pool
//     (crypto/rand), the closest available stand-in for physical randomness.
//   - DeterministicNoise is a seeded, reproducible source used by tests and
//     benchmarks so that experiments are repeatable.
//
// Implementations must be safe for concurrent use.
type NoiseSource interface {
	// Gaussian returns one sample from a standard normal distribution
	// (mean 0, standard deviation 1).
	Gaussian() float64
}

// boxMuller converts two independent uniform samples in [0,1) into one
// standard-normal sample.
func boxMuller(u1, u2 float64) float64 {
	if u1 < 1e-300 {
		u1 = 1e-300
	}
	return math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
}

// PhysicalNoise is a NoiseSource backed by the operating system entropy pool.
// It buffers entropy to avoid a system call per sample, refilling one buffer
// in place so steady-state draws allocate nothing.
type PhysicalNoise struct {
	mu  sync.Mutex
	buf []byte // drange:guardedby mu
	off int    // drange:guardedby mu
}

// NewPhysicalNoise returns a NoiseSource that draws from crypto/rand.
func NewPhysicalNoise() *PhysicalNoise {
	return &PhysicalNoise{}
}

func (p *PhysicalNoise) uniform() float64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.off+8 > len(p.buf) {
		if p.buf == nil {
			p.buf = make([]byte, 4096)
		}
		p.off = 0
		if _, err := rand.Read(p.buf); err != nil {
			// crypto/rand failing is unrecoverable for a TRNG; surface it
			// loudly rather than silently degrade to predictable output.
			panic(fmt.Sprintf("dram: reading OS entropy failed: %v", err))
		}
	}
	v := binary.LittleEndian.Uint64(p.buf[p.off:])
	p.off += 8
	return float64(v>>11) / float64(1<<53)
}

// Gaussian implements NoiseSource.
func (p *PhysicalNoise) Gaussian() float64 {
	return boxMuller(p.uniform(), p.uniform())
}

// DeterministicNoise is a seeded, reproducible NoiseSource based on
// SplitMix64. It is intended for tests, characterization reproducibility and
// benchmarks; it is NOT suitable for generating keys.
type DeterministicNoise struct {
	mu    sync.Mutex
	state uint64 // drange:guardedby mu
}

// NewDeterministicNoise returns a reproducible noise source seeded with seed.
func NewDeterministicNoise(seed uint64) *DeterministicNoise {
	return &DeterministicNoise{state: seed ^ 0xd1b54a32d192ed03}
}

func (d *DeterministicNoise) next() uint64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	var out uint64
	d.state, out = splitmix64(d.state)
	return out
}

// Gaussian implements NoiseSource.
func (d *DeterministicNoise) Gaussian() float64 {
	return boxMuller(unitFloat(d.next()), unitFloat(d.next()))
}

// BankNoiseSource is an optional NoiseSource extension providing one
// independent noise stream per bank. When a Device's noise source implements
// it, activation-failure injection draws from the stream of the bank being
// accessed, so the bit sequence harvested from a bank depends only on that
// bank's own command order. This models per-bank sense amplifiers having
// independent analog noise, and it is what makes concurrent multi-bank
// harvesting reproducible: goroutines driving disjoint banks cannot perturb
// each other's noise draws no matter how the scheduler interleaves them.
type BankNoiseSource interface {
	NoiseSource
	// GaussianFor returns one standard-normal sample from the stream
	// dedicated to bank.
	GaussianFor(bank int) float64
}

// DeterministicBankNoise is a seeded NoiseSource with an independent
// reproducible SplitMix64 stream per bank. Like DeterministicNoise it is for
// tests, characterization and benchmarks only — never for generating keys.
type DeterministicBankNoise struct {
	mu   sync.Mutex
	seed uint64
	// streams holds the per-bank stream states indexed by bank+1 (slot 0 is
	// the bankless stream), lazily initialised; init marks live slots. A
	// dense slice keeps the per-draw cost to an uncontended lock and an
	// index, which matters in the failure-injection hot path.
	streams []uint64 // drange:guardedby mu
	init    []bool   // drange:guardedby mu
}

// NewDeterministicBankNoise returns a reproducible per-bank noise source
// seeded with seed.
func NewDeterministicBankNoise(seed uint64) *DeterministicBankNoise {
	return &DeterministicBankNoise{seed: seed}
}

// stateLocked returns the stream slot for bank, deriving its seed on first
// use. Callers hold d.mu.
func (d *DeterministicBankNoise) stateLocked(bank int) *uint64 {
	slot := bank + 1
	if slot >= len(d.streams) {
		streams := make([]uint64, slot+1)
		copy(streams, d.streams)
		initd := make([]bool, slot+1)
		copy(initd, d.init)
		d.streams, d.init = streams, initd
	}
	if !d.init[slot] {
		// Derive the stream seed from (seed, bank) so streams are
		// decorrelated; run one splitmix round over the mix for diffusion.
		s, _ := splitmix64(d.seed ^ (uint64(bank)+1)*0x9e3779b97f4a7c15)
		d.streams[slot] = s
		d.init[slot] = true
	}
	return &d.streams[slot]
}

func (d *DeterministicBankNoise) nextFor(bank int) uint64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	state := d.stateLocked(bank)
	var out uint64
	*state, out = splitmix64(*state)
	return out
}

// GaussianFor implements BankNoiseSource. Both uniform draws come from the
// bank's stream under one lock acquisition, in the same order as two nextFor
// calls — the sample sequence is unchanged.
func (d *DeterministicBankNoise) GaussianFor(bank int) float64 {
	d.mu.Lock()
	state := d.stateLocked(bank)
	var u1, u2 uint64
	*state, u1 = splitmix64(*state)
	*state, u2 = splitmix64(*state)
	d.mu.Unlock()
	return boxMuller(unitFloat(u1), unitFloat(u2))
}

// Gaussian implements NoiseSource; draws not attributable to a bank (e.g. the
// retention baseline's block perturbation) come from a dedicated stream.
func (d *DeterministicBankNoise) Gaussian() float64 {
	return d.GaussianFor(-1)
}

var (
	_ NoiseSource     = (*PhysicalNoise)(nil)
	_ NoiseSource     = (*DeterministicNoise)(nil)
	_ BankNoiseSource = (*DeterministicBankNoise)(nil)
)
