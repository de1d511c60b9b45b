package dram

import "fmt"

// Geometry describes the addressable organisation of one simulated DRAM
// device (one chip/channel pair as seen by the memory controller). The
// defaults are intentionally smaller than a real multi-gigabit part so that
// full-device characterization runs in seconds, but every structural property
// the paper relies on (banks, subarrays, rows, DRAM-word granularity) is
// present and configurable.
type Geometry struct {
	// Banks is the number of banks in the device.
	Banks int `json:"banks"`
	// RowsPerBank is the number of DRAM rows per bank.
	RowsPerBank int `json:"rows_per_bank"`
	// ColsPerRow is the number of cells (bits) in one DRAM row.
	ColsPerRow int `json:"cols_per_row"`
	// SubarrayRows is the number of rows that share one set of local sense
	// amplifiers; the paper observes 512 or 1024 depending on manufacturer.
	SubarrayRows int `json:"subarray_rows"`
	// WordBits is the number of bits transferred by one READ burst (the
	// DRAM word); activation failures are only observable in the first
	// word read after an activation.
	WordBits int `json:"word_bits"`
}

// IsZero reports whether the geometry is entirely unset; callers that accept
// an optional geometry treat the zero value as "the default".
func (g Geometry) IsZero() bool { return g == Geometry{} }

// DefaultLPDDR4Geometry returns the geometry used for the simulated LPDDR4
// population: 8 banks, 1024 rows per bank, 8192-bit (1 KiB) rows, 512-row
// subarrays, and a 256-bit DRAM word (x16 channel, burst length 16).
func DefaultLPDDR4Geometry() Geometry {
	return Geometry{
		Banks:        8,
		RowsPerBank:  1024,
		ColsPerRow:   8192,
		SubarrayRows: 512,
		WordBits:     256,
	}
}

// DefaultDDR3Geometry returns the geometry used for the simulated DDR3
// cross-validation devices: 8 banks, 1024 rows, 8192-bit rows, 512-row
// subarrays, and a 512-bit (64-byte) DRAM word.
func DefaultDDR3Geometry() Geometry {
	return Geometry{
		Banks:        8,
		RowsPerBank:  1024,
		ColsPerRow:   8192,
		SubarrayRows: 512,
		WordBits:     512,
	}
}

// Validate reports an error if the geometry is not internally consistent.
func (g Geometry) Validate() error {
	if g.Banks <= 0 {
		return fmt.Errorf("dram: Banks must be positive, got %d", g.Banks)
	}
	if g.RowsPerBank <= 0 {
		return fmt.Errorf("dram: RowsPerBank must be positive, got %d", g.RowsPerBank)
	}
	if g.ColsPerRow <= 0 {
		return fmt.Errorf("dram: ColsPerRow must be positive, got %d", g.ColsPerRow)
	}
	if g.SubarrayRows <= 0 {
		return fmt.Errorf("dram: SubarrayRows must be positive, got %d", g.SubarrayRows)
	}
	if g.WordBits <= 0 {
		return fmt.Errorf("dram: WordBits must be positive, got %d", g.WordBits)
	}
	if g.ColsPerRow%g.WordBits != 0 {
		return fmt.Errorf("dram: ColsPerRow (%d) must be a multiple of WordBits (%d)", g.ColsPerRow, g.WordBits)
	}
	if g.ColsPerRow%64 != 0 {
		return fmt.Errorf("dram: ColsPerRow (%d) must be a multiple of 64", g.ColsPerRow)
	}
	if g.WordBits%64 != 0 {
		return fmt.Errorf("dram: WordBits (%d) must be a multiple of 64", g.WordBits)
	}
	return nil
}

// WordsPerRow returns the number of DRAM words in one row.
func (g Geometry) WordsPerRow() int {
	return g.ColsPerRow / g.WordBits
}

// WordsPerBank returns the number of DRAM words in one bank.
func (g Geometry) WordsPerBank() int {
	return g.WordsPerRow() * g.RowsPerBank
}

// Subarray returns the subarray index containing row.
func (g Geometry) Subarray(row int) int {
	return row / g.SubarrayRows
}

// SubarrayCount returns the number of subarrays in one bank (rounded up).
func (g Geometry) SubarrayCount() int {
	return (g.RowsPerBank + g.SubarrayRows - 1) / g.SubarrayRows
}

// RowInSubarray returns the row's position within its subarray, in [0,
// SubarrayRows).
func (g Geometry) RowInSubarray(row int) int {
	return row % g.SubarrayRows
}

// CellsPerBank returns the number of cells (bits) in one bank.
func (g Geometry) CellsPerBank() int {
	return g.RowsPerBank * g.ColsPerRow
}

// CellsPerDevice returns the number of cells (bits) in the device.
func (g Geometry) CellsPerDevice() int {
	return g.Banks * g.CellsPerBank()
}

// wordsU64 returns the number of 64-bit words needed to hold one DRAM word.
func (g Geometry) wordU64s() int {
	return g.WordBits / 64
}

// rowU64s returns the number of 64-bit words needed to hold one DRAM row.
func (g Geometry) rowU64s() int {
	return g.ColsPerRow / 64
}
