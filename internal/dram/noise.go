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
// noise; here it is an abstraction with three implementations:
//
//   - PhysicalNoise draws from the operating system's entropy pool
//     (crypto/rand), the closest available stand-in for physical randomness.
//   - DeterministicNoise is a seeded, reproducible source used by tests and
//     benchmarks so that experiments are repeatable.
//   - DeterministicBankNoise is DeterministicNoise with one stream per bank.
//
// Every source is a stream of raw 64-bit draws. A standard-normal sample is
// Box–Muller over the next two draws (unitFloat of each, in stream order).
// Failure injection does not go through Gaussian: it reads the same draws
// through the raw-draw capability (lockDraws, drawLocked, unlockDraws), one
// lock acquisition per injected word. The draw-order contract that keeps the
// two views one stream is:
//
//   - drawLocked returns exactly the draw the next unitFloat inside
//     Gaussian (or GaussianFor, for the bank passed to lockDraws) would
//     have consumed, and advances the stream by one draw;
//   - a sample's draws are u1 then u2, so a cell's sense outcome consumes
//     draws 1–2 and its metastable coin, when it has one, draws 3–4;
//   - lockDraws(bank) selects the stream GaussianFor(bank) draws from
//     (single-stream sources have one stream and ignore bank) and holds the
//     source's lock until unlockDraws, so no other draw interleaves with a
//     word's draws.
//
// Implementations must be safe for concurrent use. The raw-draw methods are
// unexported, so the three sources above are the only implementations.
type NoiseSource interface {
	// Gaussian returns one sample from a standard normal distribution
	// (mean 0, standard deviation 1).
	Gaussian() float64

	// lockDraws acquires the source's lock for a run of draws attributed
	// to bank; unlockDraws releases it.
	lockDraws(bank int)
	// drawLocked returns the next raw 64-bit draw of the stream selected by
	// lockDraws. Callers hold the lock lockDraws took.
	drawLocked() uint64
	unlockDraws()
}

// boxMuller converts two independent uniform samples in [0,1) into one
// standard-normal sample.
func boxMuller(u1, u2 float64) float64 {
	if u1 < 1e-300 {
		u1 = 1e-300
	}
	return math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
}

// senseOutcome is how the sense amplifier resolves one cell accessed after a
// reduced-tRCD activation: its noisy differential is below the metastable
// window (senseFail), above it (sensePass), or inside it (senseCoin, resolved
// by a second, symmetric noise sample).
type senseOutcome uint8

const (
	sensePass senseOutcome = iota
	senseFail
	senseCoin
)

// radiusTiers are the Box–Muller radii R_k the sampler bounds a sample by,
// smallest first; radiusTau[k] = exp(−R_k²/2)·(1+1e-6) is the smallest u1
// for which the computed radius √(−2·ln u1) is taken to be below R_k. The
// 1e-6 slack keeps it below R_k by a relative 1e-8 or more, far wider than
// the few-ulp error of Log and Sqrt. The last tier covers every nonzero
// draw: u1 ≥ 2⁻⁵³ has radius at most √(106·ln 2) ≈ 8.5716.
var (
	radiusTiers = [...]float64{1, 1.5, 2, 2.5, 3, 4, 5, 6, 7, 8.58}
	radiusTau   = radiusThresholds()
)

func radiusThresholds() [len(radiusTiers)]float64 {
	var tau [len(radiusTiers)]float64
	for k, r := range radiusTiers {
		tau[k] = math.Exp(-r*r/2) * (1 + 1e-6)
	}
	return tau
}

// senseOutcomeOf classifies a cell with latency margin margin, noise sigma
// and metastable half-window w from its first two noise draws, exactly as
//
//	differential := margin + sigma*boxMuller(unitFloat(h1), unitFloat(h2))
//
// compared against ±w would, but without the transcendentals whenever the
// radius bound decides. The computed g = r·cos(2πu₂) satisfies |g| ≤ r, and
// margin + sigma·g is monotone in g after rounding, so once u1 ≥ τ_k the
// differential lies in [margin − sigma·R_k, margin + sigma·R_k] as computed
// here (whether or not either sum is fused into a multiply-add: |g| stays
// below R_k by far more than an ulp). An interval wholly below −w fails,
// wholly above +w passes and wholly inside ±w is a coin. An interval
// straddling an edge, or h1>>11 == 0 (the 1e-300 clamp), takes the exact
// arithmetic. Either way the cell consumes exactly draws h1 and h2.
//
//drange:noalloc
func senseOutcomeOf(margin, sigma, w float64, h1, h2 uint64) senseOutcome {
	u1 := unitFloat(h1)
	for k, tau := range radiusTau {
		if u1 >= tau {
			// Only the tightest tier can decide: every wider tier's
			// interval contains this one.
			lo, hi := margin-sigma*radiusTiers[k], margin+sigma*radiusTiers[k]
			switch {
			case hi < -w:
				return senseFail
			case lo > w:
				return sensePass
			case lo >= -w && hi <= w:
				return senseCoin
			}
			break
		}
	}
	differential := margin + sigma*boxMuller(u1, unitFloat(h2))
	switch {
	case differential < -w:
		return senseFail
	case differential <= w:
		return senseCoin
	}
	return sensePass
}

// coinBand is the half-width, in units of 2⁻⁵³, of the bands around u = ¼ and
// u = ¾ where the sign of the computed cos(2π·u) is left to the exact
// arithmetic. Outside them the sign is fixed by the quarter u falls in: the
// rounding of 2π·u and of Cos moves the zero crossings by less than one
// step of u, so the bands only guard Cos implementations that round
// differently at the crossings.
const coinBand = 16

// coinFails resolves a metastable cell from its coin draws h3, h4 exactly as
// boxMuller(unitFloat(h3), unitFloat(h4)) < 0 would. The radius is positive
// for every u3 < 1, so the sign is that of cos(2π·u4): negative exactly for
// u4 in (¼, ¾), away from the bands around the two zero crossings.
//
//drange:noalloc
func coinFails(h3, h4 uint64) bool {
	const quarter, threeQuarters = 1 << 51, 3 << 51 // ¼ and ¾ in units of 2⁻⁵³
	k := h4 >> 11
	if (k >= quarter-coinBand && k <= quarter+coinBand) || (k >= threeQuarters-coinBand && k <= threeQuarters+coinBand) {
		return boxMuller(unitFloat(h3), unitFloat(h4)) < 0
	}
	return k > quarter && k < threeQuarters
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

func (p *PhysicalNoise) lockDraws(int) { p.mu.Lock() }
func (p *PhysicalNoise) unlockDraws()  { p.mu.Unlock() }

// drawLocked returns the next 8 bytes of the entropy buffer, little-endian,
// refilling the buffer in place when it runs out. Callers hold p.mu.
//
//drange:noalloc amortized
func (p *PhysicalNoise) drawLocked() uint64 {
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
	return v
}

// Gaussian implements NoiseSource.
func (p *PhysicalNoise) Gaussian() float64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return gaussianFromHash(p.drawLocked(), p.drawLocked())
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

func (d *DeterministicNoise) lockDraws(int) { d.mu.Lock() }
func (d *DeterministicNoise) unlockDraws()  { d.mu.Unlock() }

// drawLocked advances the SplitMix64 stream by one draw. Callers hold d.mu.
//
//drange:noalloc
func (d *DeterministicNoise) drawLocked() uint64 {
	var out uint64
	d.state, out = splitmix64(d.state)
	return out
}

// Gaussian implements NoiseSource.
func (d *DeterministicNoise) Gaussian() float64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return gaussianFromHash(d.drawLocked(), d.drawLocked())
}

// BankNoiseSource is a NoiseSource with one independent noise stream per
// bank. Activation-failure injection attributes its draws to the bank being
// accessed (lockDraws(bank)), so with such a source the bit sequence
// harvested from a bank depends only on that bank's own command order. This
// models per-bank sense amplifiers having independent analog noise, and it
// is what makes concurrent multi-bank harvesting reproducible: goroutines
// driving disjoint banks cannot perturb each other's noise draws no matter
// how the scheduler interleaves them.
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
	// dense slice keeps stream selection to an index, which matters in the
	// failure-injection hot path.
	streams []uint64 // drange:guardedby mu
	init    []bool   // drange:guardedby mu
	// cur is the stream the current run of draws advances: set by
	// lockDraws and GaussianFor, valid until the lock is released.
	cur *uint64 // drange:guardedby mu
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

func (d *DeterministicBankNoise) lockDraws(bank int) {
	d.mu.Lock()
	d.cur = d.stateLocked(bank)
}

func (d *DeterministicBankNoise) unlockDraws() { d.mu.Unlock() }

// drawLocked advances the selected bank's SplitMix64 stream by one draw.
// Callers hold d.mu.
//
//drange:noalloc
func (d *DeterministicBankNoise) drawLocked() uint64 {
	var out uint64
	*d.cur, out = splitmix64(*d.cur)
	return out
}

// GaussianFor implements BankNoiseSource: both draws come from the bank's
// stream under one lock acquisition.
func (d *DeterministicBankNoise) GaussianFor(bank int) float64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.cur = d.stateLocked(bank)
	return gaussianFromHash(d.drawLocked(), d.drawLocked())
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
