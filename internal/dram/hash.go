// Package dram models commodity DRAM devices at the level of detail the
// D-RaNGe paper depends on: channels, banks, subarrays, rows and cells, a
// per-cell analog activation (bitline development) model with process
// variation, data-pattern (neighbour coupling) dependence, temperature
// dependence, and a pluggable physical-noise source.
//
// The model is "procedural": every cell's manufacturing character is a pure
// function of (device serial, bank, row, column) through a 64-bit mixing
// function, so a device costs no memory for its variation map and a cell's
// character is perfectly stable over time — matching the paper's observation
// (Section 5.4) that a cell's activation-failure probability does not change
// significantly across 15 days of testing.
//
// Failure injection is an exact, cheap sampler of one fixed model. A cell
// read after a reduced-tRCD activation has the bitline differential
// margin + σ·g, g = √(−2·ln u₁)·cos(2π·u₂) a Box–Muller sample of two draws
// of the noise stream (the bank's own, with a per-bank source). Below the metastable window −w it fails, above
// +w it reads correctly, and inside ±w it fails when a second sample, of the
// next two draws, is negative. The sampler reaches those outcomes without
// the transcendentals for nearly every cell, and without changing a draw:
//
//   - Radius bound. |g| ≤ r = √(−2·ln u₁), and margin + σ·g is monotone in
//     g after rounding, so once u₁ is above the threshold of a radius tier
//     R_k the differential lies in [margin − σR_k, margin + σR_k]. When that
//     interval sits wholly below −w, above +w or inside ±w, the outcome is
//     decided; only an interval straddling an edge (or u₁ = 0) takes the
//     exact arithmetic.
//   - Sign-only coin. The radius is always positive, so the second sample
//     is negative exactly when cos(2π·u₄) is: u₄ in (¼, ¾), with a few ulps
//     around ¼ and ¾ computed exactly.
//   - One noise lock per word. Each noise source hands the injector its raw
//     64-bit draws under one lock acquisition per injected word.
//
// Every cell still consumes the same two (or four) draws in the same order,
// so the stream, and every flip a seeded device produces, is the one the
// plain arithmetic gives; a differential test pins the sampler against it.
package dram

// splitmix64 advances the state and returns the next value of the SplitMix64
// sequence. It is used as the mixing core of the procedural variation model
// and of the deterministic noise source.
func splitmix64(state uint64) (next uint64, out uint64) {
	state += 0x9e3779b97f4a7c15
	z := state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return state, z
}

// mix64 hashes an arbitrary sequence of 64-bit words into a single 64-bit
// value with good avalanche behaviour.
func mix64(words ...uint64) uint64 {
	h := uint64(0x8c2f9d71ab3e07b5)
	for _, w := range words {
		h ^= w
		_, h = splitmix64(h)
	}
	return h
}

// unitFloat maps a 64-bit hash to a float64 uniformly distributed in [0, 1).
func unitFloat(h uint64) float64 {
	return float64(h>>11) / float64(1<<53)
}

// gaussianFromHash converts two uniform hashes into one standard-normal sample
// using the Box–Muller transform. Only the first of the pair is returned;
// callers that need independent samples must supply independent hashes.
func gaussianFromHash(h1, h2 uint64) float64 {
	return boxMuller(unitFloat(h1), unitFloat(h2))
}
