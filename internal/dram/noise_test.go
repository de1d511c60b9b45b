package dram

import (
	"math"
	"sync"
	"testing"
)

func checkGaussianMoments(t *testing.T, name string, src NoiseSource, n int) {
	t.Helper()
	sum, sumSq := 0.0, 0.0
	for i := 0; i < n; i++ {
		g := src.Gaussian()
		if math.IsNaN(g) || math.IsInf(g, 0) {
			t.Fatalf("%s produced non-finite sample %v", name, g)
		}
		sum += g
		sumSq += g * g
	}
	mean := sum / float64(n)
	variance := sumSq/float64(n) - mean*mean
	if math.Abs(mean) > 0.08 {
		t.Errorf("%s mean = %v, want ~0", name, mean)
	}
	if math.Abs(variance-1) > 0.15 {
		t.Errorf("%s variance = %v, want ~1", name, variance)
	}
}

func TestPhysicalNoiseMoments(t *testing.T) {
	checkGaussianMoments(t, "PhysicalNoise", NewPhysicalNoise(), 5000)
}

// TestPhysicalNoiseRefillsInPlace: after the first refill, draws — refills of
// the entropy buffer included — allocate nothing.
func TestPhysicalNoiseRefillsInPlace(t *testing.T) {
	p := NewPhysicalNoise()
	p.Gaussian()
	allocs := testing.AllocsPerRun(4, func() {
		// 1024 draws take 16 KiB of entropy: four buffer refills.
		for i := 0; i < 1024; i++ {
			p.Gaussian()
		}
	})
	if allocs != 0 {
		t.Errorf("1024 Gaussian draws allocate %.1f times, want 0", allocs)
	}
}

func TestDeterministicNoiseMoments(t *testing.T) {
	checkGaussianMoments(t, "DeterministicNoise", NewDeterministicNoise(7), 5000)
}

func TestDeterministicNoiseReproducible(t *testing.T) {
	a := NewDeterministicNoise(99)
	b := NewDeterministicNoise(99)
	for i := 0; i < 100; i++ {
		if a.Gaussian() != b.Gaussian() {
			t.Fatalf("same-seed sources diverged at sample %d", i)
		}
	}
}

func TestDeterministicNoiseSeedSensitivity(t *testing.T) {
	a := NewDeterministicNoise(1)
	b := NewDeterministicNoise(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Gaussian() == b.Gaussian() {
			same++
		}
	}
	if same > 5 {
		t.Errorf("different seeds produced %d/100 identical samples", same)
	}
}

func TestDeterministicBankNoiseMoments(t *testing.T) {
	checkGaussianMoments(t, "DeterministicBankNoise", NewDeterministicBankNoise(7), 5000)
}

func TestDeterministicBankNoiseStreamsIndependent(t *testing.T) {
	// Draws on one bank's stream must not advance another bank's stream, no
	// matter how draws interleave across banks.
	a := NewDeterministicBankNoise(42)
	b := NewDeterministicBankNoise(42)
	var seqA []float64
	for i := 0; i < 50; i++ {
		seqA = append(seqA, a.GaussianFor(2))
	}
	for i := 0; i < 50; i++ {
		_ = b.GaussianFor(0)
		got := b.GaussianFor(2)
		_ = b.GaussianFor(5)
		if got != seqA[i] {
			t.Fatalf("bank-2 stream diverged at sample %d when interleaved with other banks", i)
		}
	}
	// Distinct banks must produce decorrelated streams.
	c := NewDeterministicBankNoise(42)
	same := 0
	for i := 0; i < 100; i++ {
		if c.GaussianFor(0) == c.GaussianFor(1) {
			same++
		}
	}
	if same > 5 {
		t.Errorf("banks 0 and 1 produced %d/100 identical samples", same)
	}
}

func TestNoiseSourcesConcurrentUse(t *testing.T) {
	for _, src := range []NoiseSource{NewPhysicalNoise(), NewDeterministicNoise(3), NewDeterministicBankNoise(3)} {
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 1000; i++ {
					_ = src.Gaussian()
				}
			}()
		}
		wg.Wait()
	}
}

func TestBoxMullerHandlesZeroUniform(t *testing.T) {
	v := boxMuller(0, 0.5)
	if math.IsNaN(v) || math.IsInf(v, 0) {
		t.Errorf("boxMuller(0, 0.5) = %v, want finite", v)
	}
}
