package drange

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"testing"

	"repro/internal/dram"
	"repro/internal/memctrl"
	"repro/internal/pattern"
	"repro/internal/profiler"
)

// The pins in this file were computed by the bit-at-a-time reference
// implementation of pattern filling, failure counting and candidate
// sampling. Identification may get faster, but under deterministic noise it
// must reproduce them exactly: a changed checksum means the reproduction now
// computes something else.

// goldenGeometry is a small device with every structural feature present,
// so the per-manufacturer cases run in a fraction of a second.
func goldenGeometry() Geometry {
	return Geometry{
		Banks:        2,
		RowsPerBank:  128,
		ColsPerRow:   2048,
		SubarrayRows: 64,
		WordBits:     256,
	}
}

// characterizeGolden pins the sealed profile checksum of a small
// deterministic characterization per manufacturer. A and C fill SOLID0
// rows, B fills CHECKERED0, so both row-parity cases of the checkered mask
// are exercised.
var characterizeGolden = []struct {
	manufacturer string
	serial       uint64
	checksum     string
}{
	{"A", 11, "sha256:844e6b9390dbbe3e0df7cae1e49aa4fc0809d5b87612a4762ffe5772622ad7f3"},
	{"B", 12, "sha256:0326fb277982bcd0d882f5edd72d57332d25262aa8ab18e739ed8c84b89116f5"},
	{"C", 13, "sha256:ab0485806f63b6b8eda157f306aa493a4dee772a30b35d6e362acc5e21bbd660"},
}

func TestCharacterizeGoldenChecksums(t *testing.T) {
	for _, tc := range characterizeGolden {
		t.Run(tc.manufacturer, func(t *testing.T) {
			p, err := Characterize(context.Background(),
				WithManufacturer(tc.manufacturer),
				WithSerial(tc.serial),
				WithDeterministic(true),
				WithGeometry(goldenGeometry()),
				WithProfilingRegion(48, 8, 2),
				WithSamples(300),
				WithScreenIterations(25),
			)
			if err != nil {
				t.Fatal(err)
			}
			if len(p.Cells) == 0 {
				t.Fatal("golden characterization found no RNG cells")
			}
			if p.Checksum != tc.checksum {
				t.Errorf("checksum %s, want %s (%d cells)", p.Checksum, tc.checksum, len(p.Cells))
			}
		})
	}
}

// characterizeDefaultGolden pins Characterize at its default options (the
// default LPDDR4 geometry and profiling region) for manufacturer B.
const characterizeDefaultGolden = "sha256:c3167b740cf1d19a5dfcc1a264e8e747e779c13633777ff3340eea38d63a3531"

func TestCharacterizeGoldenDefaultOptions(t *testing.T) {
	if testing.Short() {
		t.Skip("default-geometry characterization skipped in -short mode")
	}
	p, err := Characterize(context.Background(),
		WithManufacturer("B"),
		WithSerial(21),
		WithDeterministic(true),
	)
	if err != nil {
		t.Fatal(err)
	}
	if p.Checksum != characterizeDefaultGolden {
		t.Errorf("checksum %s, want %s (%d cells)", p.Checksum, characterizeDefaultGolden, len(p.Cells))
	}
}

// profilerRunGolden pins a hash of the sorted failure counts of
// profiler.Run, the Algorithm 1 pass behind the Figure 4-7 experiments, for
// patterns whose masks depend on row parity, column parity and the walking
// offset. The region starts on an odd row and a nonzero word so row and
// word offsets are exercised too.
var profilerRunGolden = []struct {
	pattern pattern.Pattern
	hash    string
}{
	{pattern.Checkered1(), "91d5339eb72f538d1c3fc75d9c95d56f4da5e650e72a00aebb4eedc61ab258cd"},
	{pattern.Walking1(5), "315858394deaa37a26cb33b3d001d431c9b6c96d8190c1dc50b9a2d909f1e3b5"},
	{pattern.Pattern{Kind: pattern.KindColStripe, Inverted: true}, "41f2483fc53d74c26bc498e77e25b593055d643c50c6686df20d01b731beec10"},
}

func TestProfilerRunGoldenCounts(t *testing.T) {
	prof := dram.MustProfile(dram.ManufacturerB)
	prof.WeakColumnDensity = 1.0 / 16.0
	prof.SubarrayRows = 64
	region := profiler.Region{Bank: 1, RowStart: 3, RowCount: 20, WordStart: 1, WordCount: 3}
	for _, tc := range profilerRunGolden {
		t.Run(tc.pattern.String(), func(t *testing.T) {
			dev, err := dram.NewDevice(dram.Config{
				Serial:   31,
				Profile:  &prof,
				Geometry: dram.Geometry(goldenGeometry()),
				Noise:    dram.NewDeterministicNoise(31),
			})
			if err != nil {
				t.Fatal(err)
			}
			fp, err := profiler.Run(memctrl.NewController(dev), region,
				profiler.Config{TRCDNS: 10, Iterations: 40, Pattern: tc.pattern})
			if err != nil {
				t.Fatal(err)
			}
			if len(fp.Counts) == 0 {
				t.Fatal("profiler.Run recorded no failures")
			}
			if got := countsHash(fp.Counts); got != tc.hash {
				t.Errorf("counts hash %s, want %s (%d cells, %d failures)", got, tc.hash, len(fp.Counts), fp.TotalFailures())
			}
		})
	}
}

// countsHash hashes failure counts in (bank, row, col) order.
func countsHash(counts map[profiler.CellAddr]int) string {
	cells := make([]profiler.CellAddr, 0, len(counts))
	for c := range counts {
		cells = append(cells, c)
	}
	sort.Slice(cells, func(i, j int) bool {
		a, b := cells[i], cells[j]
		if a.Bank != b.Bank {
			return a.Bank < b.Bank
		}
		if a.Row != b.Row {
			return a.Row < b.Row
		}
		return a.Col < b.Col
	})
	h := sha256.New()
	for _, c := range cells {
		fmt.Fprintf(h, "%d %d %d %d\n", c.Bank, c.Row, c.Col, counts[c])
	}
	return hex.EncodeToString(h.Sum(nil))
}
