package device_test

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/device"
	"repro/internal/dram"
	"repro/internal/timing"
)

// openSim builds the reference implementation of the contract: the simulated
// device, small and deterministic so the contract suite runs in milliseconds.
func openSim(t *testing.T) device.Device {
	t.Helper()
	dev, err := dram.NewDevice(dram.Config{
		Serial:       7,
		Manufacturer: dram.Manufacturer("A"),
		Geometry: dram.Geometry{
			Banks:        4,
			RowsPerBank:  64,
			ColsPerRow:   1024,
			SubarrayRows: 32,
			WordBits:     256,
		},
		Timing: timing.NewLPDDR4(),
		Noise:  dram.NewDeterministicBankNoise(7),
	})
	if err != nil {
		t.Fatal(err)
	}
	return dev
}

// runDeviceContract is the contract suite every Device implementation must
// pass. It checks the documented semantics layer by layer: identity and
// shape, row/column command ordering, the profiling shortcuts, environment,
// accounting, and bank-level concurrency safety. New backends should call it
// from their own tests with their opener.
func runDeviceContract(t *testing.T, open func(t *testing.T) device.Device) {
	t.Run("IdentityAndShape", func(t *testing.T) {
		dev := open(t)
		if err := dev.Geometry().Validate(); err != nil {
			t.Errorf("Geometry does not validate: %v", err)
		}
		if err := device.TimingOf(dev).Validate(); err != nil {
			t.Errorf("Timing does not validate: %v", err)
		}
		if dev.Serial() != open(t).Serial() {
			t.Error("Serial is not stable across opens of the same identity")
		}
	})

	t.Run("RowCommandOrdering", func(t *testing.T) {
		dev := open(t)
		trcd := device.TimingOf(dev).TRCD
		if err := dev.Activate(0, 3, trcd); err != nil {
			t.Fatalf("Activate: %v", err)
		}
		// Activating an open bank is an error, whatever the row.
		if err := dev.Activate(0, 5, trcd); err == nil {
			t.Error("double Activate accepted")
		}
		// Refresh requires every bank precharged.
		if err := dev.Refresh(); err == nil {
			t.Error("Refresh accepted with an open row")
		}
		if err := dev.Precharge(0); err != nil {
			t.Fatalf("Precharge: %v", err)
		}
		// Precharging a closed bank is a no-op, not an error.
		if err := dev.Precharge(0); err != nil {
			t.Errorf("Precharge of a closed bank: %v", err)
		}
		if err := dev.Refresh(); err != nil {
			t.Errorf("Refresh with all banks closed: %v", err)
		}
		// Commands on out-of-range banks and invalid latencies fail loudly.
		if err := dev.Activate(dev.Geometry().Banks, 0, trcd); err == nil {
			t.Error("Activate on an out-of-range bank accepted")
		}
		if err := dev.Activate(1, 0, -1); err == nil {
			t.Error("negative activation latency accepted")
		}
	})

	t.Run("ColumnAccess", func(t *testing.T) {
		dev := open(t)
		g := dev.Geometry()
		trcd := device.TimingOf(dev).TRCD
		// Reads and writes require an open row.
		if _, err := dev.ReadWord(1, 0); err == nil {
			t.Error("ReadWord without an open row accepted")
		}
		if err := dev.Activate(1, 2, trcd); err != nil {
			t.Fatal(err)
		}
		defer dev.Precharge(1)
		word := make([]uint64, g.WordBits/64)
		for i := range word {
			word[i] = 0xA5A5A5A5A5A5A5A5
		}
		if err := dev.WriteWord(1, 1, word); err != nil {
			t.Fatalf("WriteWord: %v", err)
		}
		got, err := dev.ReadWord(1, 1)
		if err != nil {
			t.Fatalf("ReadWord: %v", err)
		}
		if len(got) != len(word) {
			t.Fatalf("ReadWord returned %d uint64s, want %d", len(got), len(word))
		}
		// A full-latency activation carries no failure injection, so the
		// write must read back exactly.
		for i := range got {
			if got[i] != word[i] {
				t.Errorf("word[%d] = %#x after full-latency write/read, want %#x", i, got[i], word[i])
			}
		}
		// The returned slice is a copy: mutating it must not change the array.
		got[0] = 0
		again, err := dev.ReadWord(1, 1)
		if err != nil {
			t.Fatal(err)
		}
		if again[0] != word[0] {
			t.Error("ReadWord returned a slice aliasing device storage")
		}
		if _, err := dev.ReadWord(1, g.WordsPerRow()); err == nil {
			t.Error("out-of-range word index accepted")
		}
	})

	t.Run("ProfilingShortcuts", func(t *testing.T) {
		dev := open(t)
		g := dev.Geometry()
		row := make([]uint64, g.ColsPerRow/64)
		for i := range row {
			row[i] = uint64(i) * 0x9E3779B97F4A7C15
		}
		if err := dev.WriteRow(2, 9, row); err != nil {
			t.Fatalf("WriteRow: %v", err)
		}
		got, err := dev.ReadRowRaw(2, 9)
		if err != nil {
			t.Fatalf("ReadRowRaw: %v", err)
		}
		for i := range got {
			if got[i] != row[i] {
				t.Fatalf("ReadRowRaw[%d] = %#x, want %#x (shortcuts must bypass injection)", i, got[i], row[i])
			}
		}
		// StartupRow is deterministic per location and must not disturb the
		// stored array content.
		s1, err := dev.StartupRow(2, 9)
		if err != nil {
			t.Fatalf("StartupRow: %v", err)
		}
		s2, err := dev.StartupRow(2, 9)
		if err != nil {
			t.Fatal(err)
		}
		for i := range s1 {
			if s1[i] != s2[i] {
				t.Fatal("StartupRow is not stable across calls")
			}
		}
		after, err := dev.ReadRowRaw(2, 9)
		if err != nil {
			t.Fatal(err)
		}
		for i := range after {
			if after[i] != row[i] {
				t.Fatal("StartupRow disturbed the stored row content")
			}
		}
	})

	t.Run("Environment", func(t *testing.T) {
		dev := open(t)
		base := dev.Temperature()
		if err := dev.SetTemperature(base + 15); err != nil {
			t.Fatalf("SetTemperature: %v", err)
		}
		if got := dev.Temperature(); got != base+15 {
			t.Errorf("Temperature = %v after SetTemperature(%v)", got, base+15)
		}
		if err := dev.SetTemperature(1e9); err == nil {
			t.Error("implausible temperature accepted")
		}
	})

	t.Run("Accounting", func(t *testing.T) {
		dev := open(t)
		trcd := device.TimingOf(dev).TRCD
		before := dev.OpStats()
		if err := dev.Activate(0, 0, trcd/2); err != nil {
			t.Fatal(err)
		}
		if _, err := dev.ReadWord(0, 0); err != nil {
			t.Fatal(err)
		}
		if err := dev.Precharge(0); err != nil {
			t.Fatal(err)
		}
		st := dev.OpStats()
		if st.Activates != before.Activates+1 || st.Reads != before.Reads+1 || st.Precharges != before.Precharges+1 {
			t.Errorf("stats %+v after one activate/read/precharge over %+v", st, before)
		}
		if st.ReducedTRCDAct != before.ReducedTRCDAct+1 {
			t.Errorf("reduced-tRCD activation not counted: %+v", st)
		}
	})

	t.Run("BankConcurrency", func(t *testing.T) {
		// The sharded engine drives disjoint banks from different
		// goroutines; the contract requires that to be safe.
		dev := open(t)
		g := dev.Geometry()
		trcd := device.TimingOf(dev).TRCD
		var wg sync.WaitGroup
		errs := make(chan error, g.Banks)
		for bank := 0; bank < g.Banks; bank++ {
			wg.Add(1)
			go func(bank int) {
				defer wg.Done()
				for i := 0; i < 32; i++ {
					row := i % g.RowsPerBank
					if err := dev.Activate(bank, row, trcd/2); err != nil {
						errs <- fmt.Errorf("bank %d activate: %w", bank, err)
						return
					}
					if _, err := dev.ReadWord(bank, i%g.WordsPerRow()); err != nil {
						errs <- fmt.Errorf("bank %d read: %w", bank, err)
						return
					}
					if err := dev.Precharge(bank); err != nil {
						errs <- fmt.Errorf("bank %d precharge: %w", bank, err)
						return
					}
				}
			}(bank)
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Error(err)
		}
	})
}

// TestSimDeviceContract runs the contract suite against the reference
// simulated backend.
func TestSimDeviceContract(t *testing.T) {
	runDeviceContract(t, openSim)
}

// TestReducedLatencyInjection pins the property the whole pipeline rests on
// and the contract documents: a reduced-tRCD activation arms failure
// injection for the first word read, a full-latency activation never flips a
// bit.
func TestReducedLatencyInjection(t *testing.T) {
	dev := openSim(t)
	g := dev.Geometry()
	full := device.TimingOf(dev).TRCD
	row := make([]uint64, g.ColsPerRow/64) // all zeros
	flips := 0
	for r := 0; r < 32; r++ {
		if err := dev.WriteRow(3, r, row); err != nil {
			t.Fatal(err)
		}
		if err := dev.Activate(3, r, 4.0); err != nil {
			t.Fatal(err)
		}
		w, err := dev.ReadWord(3, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, u := range w {
			for ; u != 0; u &= u - 1 {
				flips++
			}
		}
		if err := dev.Precharge(3); err != nil {
			t.Fatal(err)
		}
	}
	if flips == 0 {
		t.Error("no activation failures injected across 32 reduced-tRCD reads of an all-zero pattern")
	}
	if got := dev.OpStats().InjectedFlips; int(got) != flips {
		t.Errorf("InjectedFlips = %d, observed %d flipped cells", got, flips)
	}

	// Full-latency control: same pattern, no flips.
	for r := 0; r < 8; r++ {
		if err := dev.WriteRow(0, r, row); err != nil {
			t.Fatal(err)
		}
		if err := dev.Activate(0, r, full); err != nil {
			t.Fatal(err)
		}
		w, err := dev.ReadWord(0, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, u := range w {
			if u != 0 {
				t.Fatalf("full-latency read flipped bits: %#x", u)
			}
		}
		if err := dev.Precharge(0); err != nil {
			t.Fatal(err)
		}
	}
}

// untimed hides the simulator's optional capabilities behind the bare
// contract, the way a wrapping backend does.
type untimed struct{ device.Device }

// TestTimingOf: a device reports its own timing through the optional Timed
// capability; one without it is scheduled as the default LPDDR4 part.
func TestTimingOf(t *testing.T) {
	ddr3, err := dram.NewDevice(dram.Config{
		Serial:       7,
		Manufacturer: dram.Manufacturer("A"),
		Geometry:     dram.DefaultDDR3Geometry(),
		Timing:       timing.NewDDR3(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := device.TimingOf(ddr3); got != timing.NewDDR3() {
		t.Errorf("TimingOf(DDR3 simulator) = %+v, want its own DDR3 timing", got)
	}
	if got := device.TimingOf(untimed{ddr3}); got != timing.NewLPDDR4() {
		t.Errorf("TimingOf(device without Timing) = %+v, want the LPDDR4 default", got)
	}
}
