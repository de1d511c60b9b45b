package dram

import (
	"sync"
	"testing"

	"repro/internal/timing"
)

func testDevice(t *testing.T, seed uint64) *Device {
	t.Helper()
	d, err := NewDevice(Config{
		Serial:       seed,
		Manufacturer: ManufacturerA,
		Noise:        NewDeterministicNoise(seed),
	})
	if err != nil {
		t.Fatalf("NewDevice: %v", err)
	}
	return d
}

func TestNewDeviceDefaults(t *testing.T) {
	d := testDevice(t, 1)
	if d.Geometry().Banks != 8 {
		t.Errorf("default banks = %d, want 8", d.Geometry().Banks)
	}
	if d.Timing().Type != timing.LPDDR4 {
		t.Errorf("default timing type = %v, want LPDDR4", d.Timing().Type)
	}
	if d.Manufacturer() != ManufacturerA {
		t.Errorf("manufacturer = %v, want A", d.Manufacturer())
	}
	if d.Temperature() != BaselineTemperatureC {
		t.Errorf("initial temperature = %v, want %v", d.Temperature(), BaselineTemperatureC)
	}
	if d.Serial() != 1 {
		t.Errorf("serial = %d, want 1", d.Serial())
	}
}

func TestNewDeviceDDR3Defaults(t *testing.T) {
	d, err := NewDevice(Config{Serial: 5, Manufacturer: ManufacturerB, Timing: timing.NewDDR3(), Noise: NewDeterministicNoise(1)})
	if err != nil {
		t.Fatal(err)
	}
	if d.Geometry().WordBits != 512 {
		t.Errorf("DDR3 word bits = %d, want 512", d.Geometry().WordBits)
	}
}

func TestNewDeviceRejectsBadConfig(t *testing.T) {
	if _, err := NewDevice(Config{Manufacturer: Manufacturer("X")}); err == nil {
		t.Error("unknown manufacturer accepted")
	}
	bad := MustProfile(ManufacturerA)
	bad.NoiseSigmaNS = 0
	if _, err := NewDevice(Config{Profile: &bad}); err == nil {
		t.Error("invalid profile accepted")
	}
	g := DefaultLPDDR4Geometry()
	g.WordBits = 100
	if _, err := NewDevice(Config{Manufacturer: ManufacturerA, Geometry: g}); err == nil {
		t.Error("invalid geometry accepted")
	}
	tp := timing.NewLPDDR4()
	tp.TRCD = -1
	if _, err := NewDevice(Config{Manufacturer: ManufacturerA, Timing: tp}); err == nil {
		t.Error("invalid timing accepted")
	}
}

func TestSetTemperatureBounds(t *testing.T) {
	d := testDevice(t, 2)
	if err := d.SetTemperature(55); err != nil {
		t.Errorf("SetTemperature(55): %v", err)
	}
	if d.Temperature() != 55 {
		t.Errorf("Temperature = %v, want 55", d.Temperature())
	}
	if err := d.SetTemperature(-100); err == nil {
		t.Error("SetTemperature(-100) should fail")
	}
	if err := d.SetTemperature(500); err == nil {
		t.Error("SetTemperature(500) should fail")
	}
}

func TestActivateReadWriteRoundTrip(t *testing.T) {
	d := testDevice(t, 3)
	g := d.Geometry()
	word := make([]uint64, g.WordBits/64)
	for i := range word {
		word[i] = 0xAAAAAAAAAAAAAAAA
	}

	if err := d.Activate(0, 10, d.Timing().TRCD); err != nil {
		t.Fatal(err)
	}
	if err := d.WriteWord(0, 3, word); err != nil {
		t.Fatal(err)
	}
	got, err := d.ReadWord(0, 3)
	if err != nil {
		t.Fatal(err)
	}
	for i := range word {
		if got[i] != word[i] {
			t.Fatalf("word[%d] = %x, want %x (default tRCD must be error-free)", i, got[i], word[i])
		}
	}
	if err := d.Precharge(0); err != nil {
		t.Fatal(err)
	}
	if row, _ := d.OpenRow(0); row != -1 {
		t.Errorf("OpenRow after precharge = %d, want -1", row)
	}
}

func TestActivateErrors(t *testing.T) {
	d := testDevice(t, 4)
	if err := d.Activate(-1, 0, 18); err == nil {
		t.Error("negative bank accepted")
	}
	if err := d.Activate(0, -1, 18); err == nil {
		t.Error("negative row accepted")
	}
	if err := d.Activate(0, 1<<30, 18); err == nil {
		t.Error("out-of-range row accepted")
	}
	if err := d.Activate(0, 0, 0); err == nil {
		t.Error("zero tRCD accepted")
	}
	if err := d.Activate(0, 0, 18); err != nil {
		t.Fatal(err)
	}
	if err := d.Activate(0, 1, 18); err == nil {
		t.Error("double activation accepted")
	}
}

func TestReadWriteRequireOpenRow(t *testing.T) {
	d := testDevice(t, 5)
	if _, err := d.ReadWord(0, 0); err == nil {
		t.Error("read with closed row accepted")
	}
	word := make([]uint64, d.Geometry().WordBits/64)
	if err := d.WriteWord(0, 0, word); err == nil {
		t.Error("write with closed row accepted")
	}
	if err := d.WriteWord(0, 0, word[:1]); err == nil {
		t.Error("short word accepted")
	}
}

func TestDefaultTRCDNeverFails(t *testing.T) {
	d := testDevice(t, 6)
	g := d.Geometry()
	zero := make([]uint64, g.rowU64s())
	for row := 0; row < 64; row++ {
		if err := d.WriteRow(0, row, zero); err != nil {
			t.Fatal(err)
		}
	}
	for row := 0; row < 64; row++ {
		if err := d.Activate(0, row, d.Timing().TRCD); err != nil {
			t.Fatal(err)
		}
		for w := 0; w < g.WordsPerRow(); w++ {
			got, err := d.ReadWord(0, w)
			if err != nil {
				t.Fatal(err)
			}
			for _, v := range got {
				if v != 0 {
					t.Fatalf("row %d word %d: default-tRCD read returned %x, want all zeros", row, w, v)
				}
			}
		}
		if err := d.Precharge(0); err != nil {
			t.Fatal(err)
		}
	}
	if d.OpStats().InjectedFlips != 0 {
		t.Errorf("InjectedFlips = %d, want 0 at default tRCD", d.OpStats().InjectedFlips)
	}
}

func TestReducedTRCDInducesFailures(t *testing.T) {
	d := testDevice(t, 7)
	g := d.Geometry()
	zero := make([]uint64, g.rowU64s())
	flips := 0
	for row := 0; row < 256; row++ {
		if err := d.WriteRow(0, row, zero); err != nil {
			t.Fatal(err)
		}
	}
	for iter := 0; iter < 5; iter++ {
		for row := 0; row < 256; row++ {
			if err := d.Activate(0, row, 8.0); err != nil {
				t.Fatal(err)
			}
			for w := 0; w < g.WordsPerRow(); w++ {
				got, err := d.ReadWord(0, w)
				if err != nil {
					t.Fatal(err)
				}
				for _, v := range got {
					if v != 0 {
						flips++
					}
				}
				// Restore original data as Algorithm 2 does.
				if err := d.WriteWord(0, w, zero[:g.wordU64s()]); err != nil {
					t.Fatal(err)
				}
			}
			if err := d.Precharge(0); err != nil {
				t.Fatal(err)
			}
		}
	}
	if flips == 0 {
		t.Error("no activation failures observed at tRCD=8 ns across 256 rows and 5 iterations")
	}
}

func TestOnlyFirstWordAfterActivationFails(t *testing.T) {
	d := testDevice(t, 8)
	g := d.Geometry()
	zero := make([]uint64, g.rowU64s())

	// Find a word with at least one weak, vulnerable cell and high failure
	// probability by scanning the model directly.
	targetRow, targetWord := -1, -1
	for row := 0; row < g.RowsPerBank && targetRow < 0; row++ {
		for w := 0; w < g.WordsPerRow(); w++ {
			cols, err := d.WeakColumnsInWord(0, row, w)
			if err != nil {
				t.Fatal(err)
			}
			for _, col := range cols {
				c, err := d.CellCharacter(0, row, col)
				if err != nil {
					t.Fatal(err)
				}
				if !c.AntiCell && c.FailureProbability(6.0, BaselineTemperatureC, 0) > 0.95 {
					targetRow, targetWord = row, w
					break
				}
			}
			if targetRow >= 0 {
				break
			}
		}
	}
	if targetRow < 0 {
		t.Skip("no high-probability cell found with this seed")
	}

	if err := d.WriteRow(0, targetRow, zero); err != nil {
		t.Fatal(err)
	}
	if err := d.Activate(0, targetRow, 6.0); err != nil {
		t.Fatal(err)
	}
	// First access goes to a DIFFERENT word: failures are bound to the first
	// accessed word only, so the target word must then read clean.
	otherWord := (targetWord + 1) % g.WordsPerRow()
	if _, err := d.ReadWord(0, otherWord); err != nil {
		t.Fatal(err)
	}
	got, err := d.ReadWord(0, targetWord)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range got {
		if v != 0 {
			t.Error("second accessed word contained failures; only the first word after activation may fail")
		}
	}
	if err := d.Precharge(0); err != nil {
		t.Fatal(err)
	}
}

func TestFailuresCorruptStoredRowUntilRewritten(t *testing.T) {
	d := testDevice(t, 9)
	g := d.Geometry()
	zero := make([]uint64, g.rowU64s())

	// Find a near-certain failing cell.
	targetRow, targetWord, targetCol := -1, -1, -1
	for row := 0; row < g.RowsPerBank && targetRow < 0; row++ {
		for w := 0; w < g.WordsPerRow(); w++ {
			cols, _ := d.WeakColumnsInWord(0, row, w)
			for _, col := range cols {
				c, _ := d.CellCharacter(0, row, col)
				if !c.AntiCell && c.FailureProbability(6.0, BaselineTemperatureC, 0) > 0.999 {
					targetRow, targetWord, targetCol = row, w, col
					break
				}
			}
			if targetRow >= 0 {
				break
			}
		}
	}
	if targetRow < 0 {
		t.Skip("no near-certain failing cell found with this seed")
	}
	if err := d.WriteRow(0, targetRow, zero); err != nil {
		t.Fatal(err)
	}
	if err := d.Activate(0, targetRow, 6.0); err != nil {
		t.Fatal(err)
	}
	if _, err := d.ReadWord(0, targetWord); err != nil {
		t.Fatal(err)
	}
	if err := d.Precharge(0); err != nil {
		t.Fatal(err)
	}
	raw, err := d.ReadRowRaw(0, targetRow)
	if err != nil {
		t.Fatal(err)
	}
	if getBit(raw, targetCol) == 0 {
		t.Error("activation failure should have been restored into the array (bit still 0)")
	}
}

func TestStartupRowDeterministicAndDeviceSpecific(t *testing.T) {
	d1 := testDevice(t, 10)
	d2 := testDevice(t, 11)
	a, err := d1.StartupRow(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := d1.StartupRow(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	c, err := d2.StartupRow(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	same, diff := true, false
	for i := range a {
		if a[i] != b[i] {
			same = false
		}
		if a[i] != c[i] {
			diff = true
		}
	}
	if !same {
		t.Error("startup values not stable across reads")
	}
	if !diff {
		t.Error("startup values identical across different devices")
	}
	if _, err := d1.StartupRow(99, 0); err == nil {
		t.Error("out-of-range bank accepted")
	}
}

func TestRefreshRequiresClosedRows(t *testing.T) {
	d := testDevice(t, 12)
	if err := d.Refresh(); err != nil {
		t.Fatalf("refresh with all banks closed: %v", err)
	}
	if err := d.Activate(2, 5, 18); err != nil {
		t.Fatal(err)
	}
	if err := d.Refresh(); err == nil {
		t.Error("refresh with open row accepted")
	}
}

func TestDeviceStatsCount(t *testing.T) {
	d := testDevice(t, 13)
	g := d.Geometry()
	word := make([]uint64, g.wordU64s())
	if err := d.Activate(0, 0, 10.0); err != nil {
		t.Fatal(err)
	}
	if _, err := d.ReadWord(0, 0); err != nil {
		t.Fatal(err)
	}
	if err := d.WriteWord(0, 0, word); err != nil {
		t.Fatal(err)
	}
	if err := d.Precharge(0); err != nil {
		t.Fatal(err)
	}
	s := d.OpStats()
	if s.Activates != 1 || s.Reads != 1 || s.Writes != 1 || s.Precharges != 1 {
		t.Errorf("stats = %+v, want 1 of each", s)
	}
	if s.ReducedTRCDAct != 1 {
		t.Errorf("ReducedTRCDAct = %d, want 1", s.ReducedTRCDAct)
	}
}

func TestFailureProbabilityAtMatchesCellModel(t *testing.T) {
	d := testDevice(t, 14)
	g := d.Geometry()
	zero := make([]uint64, g.rowU64s())
	if err := d.WriteRow(0, 0, zero); err != nil {
		t.Fatal(err)
	}
	if err := d.WriteRow(0, 1, zero); err != nil {
		t.Fatal(err)
	}
	found := false
	for col := 0; col < g.ColsPerRow; col++ {
		p, err := d.FailureProbabilityAt(0, 0, col, 10.0)
		if err != nil {
			t.Fatal(err)
		}
		if p > 0 {
			found = true
			if p > 1 {
				t.Errorf("probability %v > 1", p)
			}
		}
	}
	if !found {
		t.Error("no cell with positive failure probability at tRCD=10 in row 0")
	}
	if _, err := d.FailureProbabilityAt(0, 0, -1, 10); err == nil {
		t.Error("negative column accepted")
	}
}

func TestWriteRowValidation(t *testing.T) {
	d := testDevice(t, 15)
	if err := d.WriteRow(0, 0, make([]uint64, 3)); err == nil {
		t.Error("short row data accepted")
	}
	if err := d.WriteRow(0, 1<<30, make([]uint64, d.Geometry().rowU64s())); err == nil {
		t.Error("out-of-range row accepted")
	}
	if _, err := d.ReadRowRaw(0, 1<<30); err == nil {
		t.Error("out-of-range row accepted by ReadRowRaw")
	}
}

func TestBitHelpers(t *testing.T) {
	data := make([]uint64, 2)
	setBit(data, 5, 1)
	if getBit(data, 5) != 1 {
		t.Error("setBit/getBit mismatch")
	}
	setBit(data, 5, 0)
	if getBit(data, 5) != 0 {
		t.Error("clearing a bit failed")
	}
	flipBit(data, 70)
	if getBit(data, 70) != 1 {
		t.Error("flipBit failed to set")
	}
	flipBit(data, 70)
	if getBit(data, 70) != 0 {
		t.Error("flipBit failed to clear")
	}
}

// injectSite is one (bank, row, word) of a warm harvesting region together
// with the word's stored content, which each access writes back.
type injectSite struct {
	bank, row, word int
	orig            []uint64
}

// injectRegion returns a device over noise with banks×rows sites: in each
// row, the word with the most weak columns (the most injection work).
// Every site is accessed once, so rows and injection caches are warm.
func injectRegion(tb testing.TB, noise NoiseSource, banks, rows int) (*Device, []injectSite) {
	tb.Helper()
	d, err := NewDevice(Config{Serial: 3, Manufacturer: ManufacturerA, Noise: noise})
	if err != nil {
		tb.Fatal(err)
	}
	g := d.Geometry()
	var sites []injectSite
	for bank := 0; bank < banks; bank++ {
		for row := 0; row < rows; row++ {
			best, most := 0, -1
			for w := 0; w < g.WordsPerRow(); w++ {
				cols, err := d.WeakColumnsInWord(bank, row, w)
				if err != nil {
					tb.Fatal(err)
				}
				if len(cols) > most {
					best, most = w, len(cols)
				}
			}
			data, err := d.ReadRowRaw(bank, row)
			if err != nil {
				tb.Fatal(err)
			}
			nw := g.wordU64s()
			sites = append(sites, injectSite{bank, row, best, data[best*nw : (best+1)*nw]})
		}
	}
	buf := make([]uint64, g.wordU64s())
	for i := range sites {
		injectAccess(tb, d, &sites[i], buf)
	}
	return d, sites
}

// injectAccess activates the site's row at 10 ns, reads its word (injecting
// activation failures), writes the original content back and precharges.
func injectAccess(tb testing.TB, d *Device, s *injectSite, buf []uint64) {
	if err := d.Activate(s.bank, s.row, 10); err != nil {
		tb.Fatal(err)
	}
	if err := d.ReadWordInto(s.bank, s.word, buf); err != nil {
		tb.Fatal(err)
	}
	if err := d.WriteWord(s.bank, s.word, s.orig); err != nil {
		tb.Fatal(err)
	}
	if err := d.Precharge(s.bank); err != nil {
		tb.Fatal(err)
	}
}

var injectNoises = []struct {
	name   string
	source func() NoiseSource
}{
	{"deterministic", func() NoiseSource { return NewDeterministicNoise(1) }},
	{"bank", func() NoiseSource { return NewDeterministicBankNoise(1) }},
	{"physical", func() NoiseSource { return NewPhysicalNoise() }},
}

// TestReducedTRCDReadAllocatesNothing: once its row and caches are warm, a
// reduced-tRCD ReadWordInto — failure injection and every noise draw
// included — allocates nothing under each noise source. 512 physical draws
// per pass span several in-place refills of PhysicalNoise's buffer.
func TestReducedTRCDReadAllocatesNothing(t *testing.T) {
	for _, n := range injectNoises {
		t.Run(n.name, func(t *testing.T) {
			d, sites := injectRegion(t, n.source(), 2, 8)
			buf := make([]uint64, d.Geometry().wordU64s())
			before := d.OpStats()
			allocs := testing.AllocsPerRun(20, func() {
				for i := range sites {
					injectAccess(t, d, &sites[i], buf)
				}
			})
			if allocs != 0 {
				t.Errorf("%d warm reduced-tRCD reads allocate %.1f times, want 0", len(sites), allocs)
			}
			after := d.OpStats()
			if after.ReducedTRCDAct == before.ReducedTRCDAct || after.InjectedFlips == before.InjectedFlips {
				t.Errorf("no failure injection exercised: %+v -> %+v", before, after)
			}
		})
	}
}

// BenchmarkInjectWord measures the device's failure-injection path alone:
// each op activates a row at 10 ns, reads one word, writes it back and
// precharges, cycling over a warm 8-bank × 48-row region.
func BenchmarkInjectWord(b *testing.B) {
	for _, n := range injectNoises {
		b.Run(n.name, func(b *testing.B) {
			d, sites := injectRegion(b, n.source(), 8, 48)
			buf := make([]uint64, d.Geometry().wordU64s())
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				injectAccess(b, d, &sites[i%len(sites)], buf)
			}
		})
	}
}

// TestSharedNoiseConcurrentInjection drives failure injection on two devices
// that share one noise source from several goroutines, beside direct
// Gaussian draws on the same source: each word's draws run under the
// source's lock while the devices' own locks are held (run with -race).
func TestSharedNoiseConcurrentInjection(t *testing.T) {
	for _, n := range injectNoises {
		t.Run(n.name, func(t *testing.T) {
			noise := n.source()
			var wg sync.WaitGroup
			for dev := 0; dev < 2; dev++ {
				d, sites := injectRegion(t, noise, 2, 4)
				for g := 0; g < 2; g++ {
					wg.Add(1)
					go func(bank int) {
						defer wg.Done()
						buf := make([]uint64, d.Geometry().wordU64s())
						for i := 0; i < 200; i++ {
							s := &sites[bank*4+i%4]
							if err := d.Activate(s.bank, s.row, 10); err != nil {
								t.Error(err)
								return
							}
							if err := d.ReadWordInto(s.bank, s.word, buf); err != nil {
								t.Error(err)
							}
							if err := d.WriteWord(s.bank, s.word, s.orig); err != nil {
								t.Error(err)
							}
							if err := d.Precharge(s.bank); err != nil {
								t.Error(err)
							}
						}
					}(g)
				}
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 1000; i++ {
					_ = gaussianFor(noise, i%3)
				}
			}()
			wg.Wait()
		})
	}
}
