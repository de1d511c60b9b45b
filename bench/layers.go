package main

// Layer replays: the traced run calls each layer's public functions directly
// with the workload's own inputs (device identities, profiling region,
// profiles, delivered bytes), one layer at a time, inside spans. The serving
// path is never instrumented; these spans sit around the benchmark's own
// calls.

import (
	"context"
	"fmt"
	"sync"
	"time"

	"repro/drange"
	"repro/internal/core"
	"repro/internal/dram"
	"repro/internal/drbg"
	"repro/internal/health"
	"repro/internal/memctrl"
	"repro/internal/pattern"
	"repro/internal/profiler"
	"repro/internal/timing"
)

// replayReadTime is how long the engine replay reads.
const replayReadTime = 2 * time.Second

// replayDevice builds the internal simulated device for a workload device.
// It seeds the noise from the serial directly, so its random bits differ
// from the facade's while the work per call is the same.
func replayDevice(d device) (*dram.Device, error) {
	return dram.NewDevice(dram.Config{
		Serial:       d.serial,
		Manufacturer: dram.Manufacturer(d.manufacturer),
		Geometry: dram.Geometry{Banks: benchGeometry.Banks, RowsPerBank: benchGeometry.RowsPerBank,
			ColsPerRow: benchGeometry.ColsPerRow, SubarrayRows: benchGeometry.SubarrayRows, WordBits: benchGeometry.WordBits},
		Timing: timing.NewLPDDR4(),
		Noise:  dram.NewDeterministicBankNoise(d.serial),
	})
}

// identifyConfig is the identification a profile records it was made with.
func identifyConfig(p *drange.Profile) core.IdentifyConfig {
	c := p.Characterization
	cfg := core.DefaultIdentifyConfig(p.Manufacturer)
	cfg.TRCDNS = c.TRCDNS
	cfg.Samples = c.Samples
	cfg.Tolerance = c.Tolerance
	cfg.MaxBiasDelta = c.MaxBiasDelta
	cfg.ScreenIterations = c.ScreenIterations
	return cfg
}

// coreSelections rebuilds a profile's word selections in the engine's form.
func coreSelections(p *drange.Profile) ([]core.BankSelection, error) {
	type key struct{ bank, row, col int }
	cells := map[key]drange.Cell{}
	for _, c := range p.EffectiveCells() {
		cells[key{c.Bank, c.Row, c.Col}] = c
	}
	ref := func(bank int, w drange.WordSelection) (core.WordRef, error) {
		out := core.WordRef{Bank: bank, Row: w.Row, WordIdx: w.Word}
		for _, col := range w.Cols {
			c, ok := cells[key{bank, w.Row, col}]
			if !ok {
				return out, fmt.Errorf("selected cell (%d, %d, %d) missing from the profile", bank, w.Row, col)
			}
			out.RNGCells = append(out.RNGCells, core.RNGCell{
				Addr: profiler.CellAddr{Bank: bank, Row: w.Row, Col: col}, WordIdx: c.Word,
				Fprob: c.FailProbability, SymbolEntropy: c.SymbolEntropy,
			})
		}
		return out, nil
	}
	var out []core.BankSelection
	for _, s := range p.EffectiveSelections() {
		w1, err := ref(s.Bank, s.Word1)
		if err != nil {
			return nil, err
		}
		w2, err := ref(s.Bank, s.Word2)
		if err != nil {
			return nil, err
		}
		out = append(out, core.BankSelection{Bank: s.Bank, Word1: w1, Word2: w2})
	}
	return out, nil
}

// replays runs every layer replay under one root span; sample holds bytes
// the workload delivered.
func (r *runner) replays(ctx context.Context, tr *tracer, sample []byte) error {
	if len(sample) < readSize {
		return fmt.Errorf("only %d delivered bytes to replay", len(sample))
	}
	sb := tr.buf()
	root := sb.newID()
	start := time.Now()

	// pattern: FillRow over every row of the bench geometry, per device.
	for _, d := range r.devs {
		pat := pattern.BestFor(d.manufacturer)
		for rep := 0; rep < 4; rep++ {
			for row := 0; row < benchGeometry.RowsPerBank; row++ {
				t0 := time.Now()
				_, err := pat.FillRow(row, benchGeometry.ColsPerRow)
				sb.record(root, 0, "pattern.FillRow", t0, time.Now())
				if err != nil {
					return err
				}
			}
		}
	}

	// profiler and core identification: one bank of the workload's region
	// per device, on a fresh device each.
	for i, d := range r.devs {
		cfg := identifyConfig(r.profiles[i])
		for _, step := range []struct {
			name string
			bank int
			call func(*memctrl.Controller, profiler.Region) error
		}{
			{"profiler.Run", 0, func(c *memctrl.Controller, reg profiler.Region) error {
				_, err := profiler.Run(c, reg, profiler.Config{TRCDNS: cfg.TRCDNS, Iterations: cfg.ScreenIterations, Pattern: cfg.Pattern})
				return err
			}},
			{"core.IdentifyRNGCells", 1, func(c *memctrl.Controller, reg profiler.Region) error {
				_, err := core.IdentifyRNGCells(c, reg, cfg)
				return err
			}},
		} {
			dev, err := replayDevice(d)
			if err != nil {
				return err
			}
			ctrl := memctrl.NewController(dev)
			reg := profiler.Region{Bank: step.bank, RowCount: r.w.region.rows, WordCount: r.w.region.words}
			t0 := time.Now()
			err = step.call(ctrl, reg)
			sb.record(root, 0, step.name, t0, time.Now())
			if err != nil {
				return fmt.Errorf("%s: %w", step.name, err)
			}
		}
	}

	if err := r.replayEngine(ctx, tr, sb, root); err != nil {
		return err
	}

	// health: the default monitor over the workload's delivered bytes.
	mon, err := health.New(health.Config{})
	if err != nil {
		return err
	}
	for rep := 0; rep < 64; rep++ {
		for off := 0; off+readSize <= len(sample); off += readSize {
			t0 := time.Now()
			mon.IngestPacked(sample[off:off+readSize], readSize*8)
			sb.record(root, 0, "health.IngestPacked", t0, time.Now())
		}
	}

	// drbg: the default ChaCha20 DRBG seeded and reseeded from delivered
	// bytes, at the facade's default reseed interval.
	gen, err := drbg.NewChaCha(sample[:32], nil, drbg.Options{ReseedInterval: 1024})
	if err != nil {
		return err
	}
	buf := make([]byte, readSize)
	for i := 0; i < 8192; i++ {
		if gen.NeedsReseed() {
			off := (i * 32) % (len(sample) - 32)
			if err := gen.Reseed(sample[off:off+32], nil); err != nil {
				return err
			}
		}
		t0 := time.Now()
		err := gen.Generate(buf, nil)
		sb.record(root, 0, "drbg.Generate", t0, time.Now())
		if err != nil {
			return err
		}
	}
	sb.add(root, 0, 0, "replay", start, time.Now())
	return nil
}

// replayEngine reads readSize blocks straight from the core sampler over the
// workload's profiles, in the served source's shape: one engine per profile
// with the workload's shard count and as many readers as the workload has
// raw-tier clients, or, for open cycles, a fresh sequential TRNG per read.
func (r *runner) replayEngine(ctx context.Context, tr *tracer, sb *spanBuf, root int64) error {
	sels := make([][]core.BankSelection, len(r.profiles))
	for i, p := range r.profiles {
		s, err := coreSelections(p)
		if err != nil {
			return err
		}
		sels[i] = s
	}
	trngCfg := func(i int) core.TRNGConfig {
		return core.TRNGConfig{TRCDNS: r.profiles[i].Characterization.TRCDNS, Pattern: pattern.BestFor(r.devs[i].manufacturer)}
	}
	deadline := time.Now().Add(replayReadTime)
	if r.w.shards == 0 {
		buf := make([]byte, readSize)
		for n := 0; time.Now().Before(deadline); n++ {
			i := n % len(r.profiles)
			dev, err := replayDevice(r.devs[i])
			if err != nil {
				return err
			}
			trng, err := core.NewTRNG(memctrl.NewController(dev), sels[i], trngCfg(i))
			if err != nil {
				return err
			}
			t0 := time.Now()
			_, err = trng.Read(buf)
			sb.record(root, 0, "core.Read", t0, time.Now())
			if err != nil {
				return err
			}
		}
		return nil
	}
	engines := make([]*core.Engine, len(r.profiles))
	for i := range r.profiles {
		dev, err := replayDevice(r.devs[i])
		if err != nil {
			return err
		}
		e, err := core.NewEngine(ctx, dev, sels[i], core.EngineConfig{Shards: r.w.shards, TRNG: trngCfg(i)})
		if err != nil {
			return err
		}
		defer e.Close()
		engines[i] = e
	}
	readers := 0
	for _, k := range r.w.clients {
		if k == readRaw || (k == read && !r.w.drbg) {
			readers++
		}
	}
	var wg sync.WaitGroup
	errs := make([]error, readers)
	for j := 0; j < readers; j++ {
		wg.Add(1)
		go func(j int, rb *spanBuf) {
			defer wg.Done()
			e := engines[j%len(engines)]
			b := make([]byte, readSize)
			for time.Now().Before(deadline) {
				t0 := time.Now()
				_, err := e.Read(b)
				rb.record(root, 0, "core.Read", t0, time.Now())
				if err != nil {
					errs[j] = err
					return
				}
			}
		}(j, tr.buf())
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
