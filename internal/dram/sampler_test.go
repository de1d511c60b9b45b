package dram

import (
	"math"
	"testing"
)

// referenceFails is the per-cell failure arithmetic the sampler must
// reproduce: the differential is the margin plus sigma times one Box–Muller
// sample of draws h1, h2; below the metastable window the cell fails, inside
// it the sign of a second sample of draws h3, h4 decides. coin reports
// whether the second sample (and with it draws h3, h4) is consumed.
func referenceFails(margin, sigma, w float64, h1, h2, h3, h4 uint64) (fail, coin bool) {
	differential := margin + sigma*boxMuller(unitFloat(h1), unitFloat(h2))
	switch {
	case differential < -w:
		return true, false
	case differential <= w:
		return boxMuller(unitFloat(h3), unitFloat(h4)) < 0, true
	}
	return false, false
}

// sampledFails is the production classifier in the reference's shape.
func sampledFails(margin, sigma, w float64, h1, h2, h3, h4 uint64) (fail, coin bool) {
	switch senseOutcomeOf(margin, sigma, w, h1, h2) {
	case senseFail:
		return true, false
	case senseCoin:
		return coinFails(h3, h4), true
	}
	return false, false
}

// unitHash returns the draw whose unitFloat is k·2⁻⁵³.
func unitHash(k uint64) uint64 { return k << 11 }

// ceilUnitHash returns the draw of the smallest u = k·2⁻⁵³ with u ≥ x.
func ceilUnitHash(x float64) uint64 {
	return unitHash(uint64(math.Ceil(x * (1 << 53))))
}

// TestSenseOutcomeMatchesReference is the differential oracle of the failure
// sampler: over more than a million seeded (margin, draws) tuples, for every
// manufacturer's sigma and window and for two extreme profiles, the fast
// classifier returns the reference's outcome and consumes the coin draws
// exactly when the reference does. Margins are drawn uniformly and clustered
// within a few ulps of every tier's decision edges ±w ± sigma·R_k, where
// draws at each tier's threshold with cos(2πu₂) = ±1 put the differential
// as close to the edge as the tier allows.
func TestSenseOutcomeMatchesReference(t *testing.T) {
	params := []struct {
		name     string
		sigma, w float64
	}{
		{"A", MustProfile(ManufacturerA).NoiseSigmaNS, MustProfile(ManufacturerA).MetastableWindowNS},
		{"B", MustProfile(ManufacturerB).NoiseSigmaNS, MustProfile(ManufacturerB).MetastableWindowNS},
		{"C", MustProfile(ManufacturerC).NoiseSigmaNS, MustProfile(ManufacturerC).MetastableWindowNS},
		// Sigma far below one ulp of w: the radius slack vanishes in the
		// rounding of margin + sigma·g, so the tier comparisons' edges
		// themselves decide.
		{"tiny-sigma", 1e-12, 0.40},
		// Unit sigma: one ulp of the radius moves the differential by more
		// than one ulp of the margin.
		{"unit-sigma", 1, 0.40},
		{"no-window", 0.06, 0},
	}

	// Draws for the first uniform: at and around every tier threshold, the
	// clamp (hashes whose >>11 is 0), the extremes and the first grid point.
	var h1s []uint64
	for _, tau := range radiusTau {
		base := ceilUnitHash(tau)
		for d := -2; d <= 2; d++ {
			h1s = append(h1s, base+uint64(int64(d))<<11)
		}
		h1s = append(h1s, ceilUnitHash(tau/(1+1e-6)))
	}
	h1s = append(h1s, 0, 0x7ff, unitHash(1), unitHash(1)|0x7ff, math.MaxUint64)
	// Draws for the second uniform: cos(2πu₂) = 1 (u₂ = 0), −1 (u₂ = ½),
	// the quarter points and the extremes.
	h2s := []uint64{0, 0x7ff, 1 << 63, 1 << 62, 3 << 62, math.MaxUint64}

	var rng uint64 = 0x5eed
	next := func() uint64 {
		var out uint64
		rng, out = splitmix64(rng)
		return out
	}
	coins := func() (uint64, uint64) {
		h3, h4 := next(), next()
		switch next() % 8 {
		case 0:
			h4 = unitHash(1<<51+next()%(4*coinBand)-2*coinBand) | next()&0x7ff
		case 1:
			h4 = unitHash(3<<51+next()%(4*coinBand)-2*coinBand) | next()&0x7ff
		case 2:
			h3 = 0
		}
		return h3, h4
	}

	tuples, coinCount := 0, 0
	check := func(name string, margin, sigma, w float64, h1, h2, h3, h4 uint64) {
		wantFail, wantCoin := referenceFails(margin, sigma, w, h1, h2, h3, h4)
		gotFail, gotCoin := sampledFails(margin, sigma, w, h1, h2, h3, h4)
		tuples++
		if wantCoin {
			coinCount++
		}
		if gotFail != wantFail || gotCoin != wantCoin {
			t.Fatalf("%s: margin %v (%#x) h1 %#x h2 %#x h3 %#x h4 %#x: got fail=%v coin=%v, want fail=%v coin=%v",
				name, margin, math.Float64bits(margin), h1, h2, h3, h4, gotFail, gotCoin, wantFail, wantCoin)
		}
	}

	for _, p := range params {
		// Margins clustered around every decision edge of every tier,
		// against every boundary draw.
		var edges []float64
		for _, r := range radiusTiers {
			for _, e := range []float64{-p.w - p.sigma*r, -p.w + p.sigma*r, p.w - p.sigma*r, p.w + p.sigma*r} {
				m := e
				for i := 0; i < 4; i++ {
					m = math.Nextafter(m, math.Inf(-1))
				}
				for i := 0; i <= 8; i++ {
					edges = append(edges, m)
					m = math.Nextafter(m, math.Inf(1))
				}
			}
		}
		for _, m := range edges {
			for _, h1 := range h1s {
				for _, h2 := range h2s {
					h3, h4 := coins()
					check(p.name, m, p.sigma, p.w, h1, h2, h3, h4)
				}
				for i := 0; i < 4; i++ {
					h3, h4 := coins()
					check(p.name, m, p.sigma, p.w, h1, next(), h3, h4)
				}
			}
			for i := 0; i < 64; i++ {
				h3, h4 := coins()
				check(p.name, m, p.sigma, p.w, next(), next(), h3, h4)
			}
		}
		// Margins uniform over the whole range where the outcome is in play
		// (and beyond it), against seeded draws.
		span := p.w + 10*p.sigma
		for i := 0; i < 100000; i++ {
			m := (2*unitFloat(next()) - 1) * span
			h3, h4 := coins()
			check(p.name, m, p.sigma, p.w, next(), next(), h3, h4)
		}
	}
	if tuples < 1000000 {
		t.Fatalf("checked %d tuples, want at least 10^6", tuples)
	}
	if coinCount == 0 || coinCount == tuples {
		t.Fatalf("%d of %d tuples drew the coin; the oracle does not exercise both branches", coinCount, tuples)
	}
}

// TestCoinBandsExhaustive checks the sign-only coin against the reference for
// every draw within ±2¹⁶ ulps of ¼ and of ¾ — the bands where the sign is
// computed exactly, their edges and well beyond — at the radius extremes.
func TestCoinBandsExhaustive(t *testing.T) {
	h3s := []uint64{
		0,               // exact-zero hash: u3 = 0, clamped
		unitHash(1),     // smallest nonzero unitFloat, 2⁻⁵³
		1 << 63,         // 0.5
		math.MaxUint64,  // 1 − 2⁻⁵³: the smallest radius
		unitHash(1) - 1, // low bits only: u3 = 0
	}
	for _, centre := range []uint64{1 << 51, 3 << 51} {
		for k := centre - 1<<16; k <= centre+1<<16; k++ {
			for _, h3 := range h3s {
				for _, h4 := range []uint64{unitHash(k), unitHash(k) | 0x7ff} {
					want := boxMuller(unitFloat(h3), unitFloat(h4)) < 0
					if got := coinFails(h3, h4); got != want {
						t.Fatalf("coinFails(%#x, %#x) = %v, want %v (u4 = %v)", h3, h4, got, want, unitFloat(h4))
					}
				}
			}
		}
	}
	for _, h3 := range h3s {
		for _, h4 := range []uint64{0, 0x7ff, math.MaxUint64} {
			if got, want := coinFails(h3, h4), boxMuller(unitFloat(h3), unitFloat(h4)) < 0; got != want {
				t.Fatalf("coinFails(%#x, %#x) = %v, want %v", h3, h4, got, want)
			}
		}
	}
}

// TestRadiusTiersBound checks the radius table the sampler relies on: at
// every tier's threshold τ_k and the next 10⁴ representable values above it,
// the computed radius is below R_k by more than a few ulps, so sigma·g stays
// below sigma·R_k after rounding whether or not margin + sigma·g is fused
// into one multiply-add; thresholds fall as radii grow; and the last tier
// covers every nonzero draw, the largest radius a nonzero draw can produce
// included.
func TestRadiusTiersBound(t *testing.T) {
	for k, r := range radiusTiers {
		u := radiusTau[k]
		for i := 0; i <= 10000; i++ {
			if got := math.Sqrt(-2 * math.Log(u)); got > r*(1-0x1p-50) {
				t.Fatalf("tier %d: radius at u1 = %v (τ + %d ulps) is %v, not below R = %v by more than a few ulps", k, u, i, got, r)
			}
			u = math.Nextafter(u, 1)
		}
		if k > 0 && (r <= radiusTiers[k-1] || radiusTau[k] >= radiusTau[k-1]) {
			t.Fatalf("tier %d (R %v, τ %v) does not follow tier %d (R %v, τ %v)", k, r, radiusTau[k], k-1, radiusTiers[k-1], radiusTau[k-1])
		}
	}
	last := len(radiusTiers) - 1
	minU := unitFloat(unitHash(1))
	if radiusTau[last] > minU {
		t.Fatalf("last tier threshold %v is above the smallest nonzero draw %v", radiusTau[last], minU)
	}
	for _, h2 := range []uint64{0, 1 << 63, 1 << 62, math.MaxUint64} {
		if g := boxMuller(minU, unitFloat(h2)); math.Abs(g) > radiusTiers[last] {
			t.Fatalf("boxMuller(2⁻⁵³, %v) = %v, beyond the global bound %v", unitFloat(h2), g, radiusTiers[last])
		}
	}
}

// gaussianFor is the sample failure injection drew per Box–Muller before it
// took raw draws: from the bank's stream when the source keeps one per bank,
// otherwise from the single shared stream.
func gaussianFor(src NoiseSource, bank int) float64 {
	if b, ok := src.(BankNoiseSource); ok {
		return b.GaussianFor(bank)
	}
	return src.Gaussian()
}

// TestRawDrawsMatchGaussianStream pins the draw-order contract: the raw draws
// failure injection takes for a bank are the draws gaussianFor would have
// turned into samples, two per sample, in order.
func TestRawDrawsMatchGaussianStream(t *testing.T) {
	sources := map[string][2]NoiseSource{
		"deterministic": {NewDeterministicNoise(11), NewDeterministicNoise(11)},
		"bank":          {NewDeterministicBankNoise(11), NewDeterministicBankNoise(11)},
	}
	for name, pair := range sources {
		raw, ref := pair[0], pair[1]
		for _, bank := range []int{3, 0, 3, -1, 7} {
			raw.lockDraws(bank)
			h := [4]uint64{raw.drawLocked(), raw.drawLocked(), raw.drawLocked(), raw.drawLocked()}
			raw.unlockDraws()
			for i := 0; i < 2; i++ {
				if got, want := gaussianFromHash(h[2*i], h[2*i+1]), gaussianFor(ref, bank); got != want {
					t.Fatalf("%s bank %d sample %d: raw draws give %v, the Gaussian stream %v", name, bank, i, got, want)
				}
			}
		}
	}
}
