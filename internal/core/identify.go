// Package core implements D-RaNGe, the paper's contribution: identifying
// DRAM cells that produce truly random values when read with a reduced
// activation latency (RNG cells, Section 6.1), selecting the best DRAM words
// per bank, and continuously sampling those cells to produce a
// high-throughput stream of true random numbers (Algorithm 2, Section 6.2),
// together with the throughput, latency and energy estimators used in the
// evaluation (Section 7.3).
package core

import (
	"fmt"
	"sort"

	"repro/internal/entropy"
	"repro/internal/memctrl"
	"repro/internal/pattern"
	"repro/internal/profiler"
)

// RNGCell is a DRAM cell identified as a reliable entropy source: reading it
// with a reduced tRCD returns values that are statistically uniform.
type RNGCell struct {
	Addr profiler.CellAddr
	// WordIdx is the DRAM word containing the cell.
	WordIdx int
	// Fprob is the observed activation-failure probability during
	// identification.
	Fprob float64
	// SymbolEntropy is the Shannon entropy (bits per symbol) of the 3-bit
	// symbol distribution observed during identification.
	SymbolEntropy float64
}

// IdentifyConfig controls RNG-cell identification.
type IdentifyConfig struct {
	// TRCDNS is the reduced activation latency used for sampling (10 ns by
	// default, as in the characterization).
	TRCDNS float64
	// ScreenIterations is the number of iterations of the cheap screening
	// pass (Algorithm 1) used to find candidate cells before deep
	// profiling.
	ScreenIterations int
	// Samples is the number of reads per candidate cell in the deep
	// profiling pass (1000 in the paper).
	Samples int
	// SymbolBits is the symbol width used for the uniformity test (3 in the
	// paper).
	SymbolBits int
	// Tolerance is the allowed deviation of each symbol count from the
	// expected count (±10% in the paper).
	Tolerance float64
	// MaxBiasDelta is the maximum allowed deviation of the cell's observed
	// failure probability from one half. An explicit 0 is honoured: it
	// admits only cells whose observed failure probability is exactly one
	// half. DefaultIdentifyConfig selects 0.05. The paper's
	// symbol-uniformity criterion implies such a bound; making it explicit
	// keeps loose-tolerance configurations from admitting biased cells.
	MaxBiasDelta float64
	// Pattern is the data pattern written around the cells during
	// identification and later during generation.
	Pattern pattern.Pattern
}

// DefaultIdentifyConfig returns the paper's identification parameters for a
// device of the given manufacturer: tRCD 10 ns, 1000-sample profiling, 3-bit
// symbols within ±10%, and the manufacturer's best data pattern.
func DefaultIdentifyConfig(m string) IdentifyConfig {
	return IdentifyConfig{
		TRCDNS:           10.0,
		ScreenIterations: 100,
		Samples:          1000,
		SymbolBits:       3,
		Tolerance:        0.10,
		MaxBiasDelta:     0.05,
		Pattern:          pattern.BestFor(m),
	}
}

func (c IdentifyConfig) validate(ctrl *memctrl.Controller) error {
	if c.TRCDNS <= 0 || c.TRCDNS > ctrl.Params().TRCD {
		return fmt.Errorf("core: identification tRCD %v ns outside (0, %v]", c.TRCDNS, ctrl.Params().TRCD)
	}
	if c.ScreenIterations <= 0 {
		return fmt.Errorf("core: screen iterations must be positive, got %d", c.ScreenIterations)
	}
	if c.Samples < 8 {
		return fmt.Errorf("core: need at least 8 samples per cell, got %d", c.Samples)
	}
	if c.SymbolBits < 1 || c.SymbolBits > 8 {
		return fmt.Errorf("core: symbol width %d outside [1,8]", c.SymbolBits)
	}
	if c.Tolerance <= 0 || c.Tolerance >= 1 {
		return fmt.Errorf("core: tolerance %v outside (0,1)", c.Tolerance)
	}
	if c.MaxBiasDelta < 0 || c.MaxBiasDelta >= 0.5 {
		return fmt.Errorf("core: MaxBiasDelta %v outside [0,0.5)", c.MaxBiasDelta)
	}
	return nil
}

// IdentifyRNGCells finds the RNG cells within the region. It first runs a
// cheap screening pass (Algorithm 1) to find candidate failure-prone cells,
// then samples the DRAM words containing candidates cfg.Samples times and
// keeps the cells whose read-value streams are uniform at the configured
// symbol width and tolerance (the Section 6.1 criterion).
func IdentifyRNGCells(ctrl *memctrl.Controller, region profiler.Region, cfg IdentifyConfig) ([]RNGCell, error) {
	if err := cfg.validate(ctrl); err != nil {
		return nil, err
	}
	if err := region.Validate(ctrl); err != nil {
		return nil, err
	}

	// Phase 1: cheap screen for failure-prone cells. A cell whose failure
	// probability is near 0 or 1 cannot produce a uniform stream, so only
	// cells in a broad middle band proceed to deep profiling.
	screen, err := profiler.Run(ctrl, region, profiler.Config{
		TRCDNS:     cfg.TRCDNS,
		Iterations: cfg.ScreenIterations,
		Pattern:    cfg.Pattern,
	})
	if err != nil {
		return nil, err
	}
	candidates := screen.CellsWithFprobBetween(0.15, 0.85)
	if len(candidates) == 0 {
		return nil, nil
	}
	// The region is one bank, so ordering by (row, col) groups the
	// candidates by DRAM word, in a fixed order, and yields the output
	// sorted.
	sort.Slice(candidates, func(i, j int) bool {
		a, b := candidates[i], candidates[j]
		if a.Row != b.Row {
			return a.Row < b.Row
		}
		return a.Col < b.Col
	})

	// Group candidates by (row, word) so the deep pass only touches words
	// that contain candidates; each word's expected data is built once.
	g := ctrl.Device().Geometry()
	wordU64s := g.WordBits / 64
	type candidateWord struct {
		row, word int
		expected  []uint64
		// cells are candidates[first:first+n].
		first, n int
	}
	var words []candidateWord
	for i, c := range candidates {
		word := c.Col / g.WordBits
		if n := len(words); n > 0 && words[n-1].row == c.Row && words[n-1].word == word {
			words[n-1].n++
			continue
		}
		rowData, err := cfg.Pattern.FillRow(c.Row, g.ColsPerRow)
		if err != nil {
			return nil, err
		}
		words = append(words, candidateWord{
			row:      c.Row,
			word:     word,
			expected: rowData[word*wordU64s : (word+1)*wordU64s],
			first:    i,
			n:        1,
		})
	}

	// Phase 2: deep profiling. Record every candidate cell's read-value
	// stream over cfg.Samples reduced-latency reads; candidates[i]'s stream
	// is streams[i*cfg.Samples : (i+1)*cfg.Samples].
	if err := profiler.WritePattern(ctrl, region, cfg.Pattern); err != nil {
		return nil, err
	}
	if err := ctrl.SetReducedTRCD(cfg.TRCDNS); err != nil {
		return nil, err
	}
	defer ctrl.ResetTRCD()

	streams := make([]byte, len(candidates)*cfg.Samples)
	got := make([]uint64, wordU64s)
	for s := 0; s < cfg.Samples; s++ {
		for _, k := range words {
			if err := ctrl.RefreshRow(region.Bank, k.row); err != nil {
				return nil, err
			}
			if _, err := ctrl.ReadWordInto(region.Bank, k.row, k.word, got); err != nil {
				return nil, err
			}
			dirty := false
			for u := 0; u < wordU64s; u++ {
				if got[u] != k.expected[u] {
					dirty = true
					break
				}
			}
			for i := k.first; i < k.first+k.n; i++ {
				bitIdx := candidates[i].Col - k.word*g.WordBits
				streams[i*cfg.Samples+s] = byte((got[bitIdx/64] >> uint(bitIdx%64)) & 1)
			}
			if dirty {
				if _, err := ctrl.WriteWord(region.Bank, k.row, k.word, k.expected); err != nil {
					return nil, err
				}
			}
			if err := ctrl.PrechargeBank(region.Bank); err != nil {
				return nil, err
			}
		}
	}

	// Apply the Section 6.1 criterion.
	var out []RNGCell
	for i, c := range candidates {
		stream := streams[i*cfg.Samples : (i+1)*cfg.Samples]
		uniform, err := entropy.SymbolsUniform(stream, cfg.SymbolBits, cfg.Tolerance)
		if err != nil {
			return nil, err
		}
		if !uniform {
			continue
		}
		expBit := cfg.Pattern.Bit(c.Row, c.Col)
		fails := 0
		for _, v := range stream {
			if uint64(v) != expBit {
				fails++
			}
		}
		fprob := float64(fails) / float64(len(stream))
		if fprob < 0.5-cfg.MaxBiasDelta || fprob > 0.5+cfg.MaxBiasDelta {
			continue
		}
		symEnt, err := entropy.ShannonSymbolEntropy(stream, cfg.SymbolBits)
		if err != nil {
			return nil, err
		}
		out = append(out, RNGCell{
			Addr:          c,
			WordIdx:       c.Col / g.WordBits,
			Fprob:         fprob,
			SymbolEntropy: symEnt,
		})
	}
	return out, nil
}
