package core

import (
	"fmt"
	"io"
	"math"
	"sort"

	"repro/internal/memctrl"
	"repro/internal/pattern"
)

// TRNGConfig controls the D-RaNGe generator.
type TRNGConfig struct {
	// TRCDNS is the reduced activation latency used while sampling.
	TRCDNS float64
	// Pattern is the data pattern maintained in the selected words and
	// their neighbours (line 4 of Algorithm 2).
	Pattern pattern.Pattern
	// MaxBanks limits how many banks are sampled in parallel; 0 means all
	// selected banks. Fewer banks reduce system interference at the cost of
	// throughput (Section 7.3).
	MaxBanks int
}

// DefaultTRNGConfig returns the generation parameters used in the
// evaluation: tRCD 10 ns and the manufacturer's best data pattern.
func DefaultTRNGConfig(manufacturer string) TRNGConfig {
	return TRNGConfig{TRCDNS: 10.0, Pattern: pattern.BestFor(manufacturer)}
}

// TRNG is the D-RaNGe true random number generator: it continuously samples
// previously-identified RNG cells by inducing activation failures, and
// exposes the harvested bits as an io.Reader. It is the single-shard
// harvesting core: one TRNG drives one controller (one simulated
// channel/rank) over its subset of banks. Engine composes several of them
// for the paper's multi-bank/multi-channel parallelism. A TRNG is not safe
// for concurrent use; Engine provides the thread-safe facade.
type TRNG struct {
	ctrl *memctrl.Controller
	cfg  TRNGConfig

	sels []trngBank

	// bits holds harvested bits, packed 64 per word, not yet consumed.
	bits bitBuffer

	// scratch is the reusable destination of sampleWord's device reads, so
	// the steady-state harvest loop performs no allocations.
	scratch []uint64

	bitsGenerated int64
}

// trngBank is the runtime state for one selected bank.
type trngBank struct {
	bank  int
	word1 trngWord
	word2 trngWord
}

type trngWord struct {
	row     int
	wordIdx int
	// cols are the bit positions of the RNG cells within the word.
	cols []int
	// original is the word's data-pattern content, restored after every
	// sample.
	original []uint64
}

// NewTRNG prepares a D-RaNGe generator over the given bank selections
// (lines 2–6 of Algorithm 2): it writes the data pattern to the chosen DRAM
// words and their neighbouring rows, captures the restore values, and
// retains the per-word RNG-cell positions.
func NewTRNG(ctrl *memctrl.Controller, selections []BankSelection, cfg TRNGConfig) (*TRNG, error) {
	if ctrl == nil {
		return nil, fmt.Errorf("core: nil controller")
	}
	if len(selections) == 0 {
		return nil, fmt.Errorf("core: no bank selections")
	}
	if cfg.TRCDNS <= 0 || cfg.TRCDNS > ctrl.Params().TRCD {
		return nil, fmt.Errorf("core: generation tRCD %v ns outside (0, %v]", cfg.TRCDNS, ctrl.Params().TRCD)
	}
	if cfg.MaxBanks < 0 {
		return nil, fmt.Errorf("core: negative MaxBanks")
	}
	sels := selections
	if cfg.MaxBanks > 0 && cfg.MaxBanks < len(sels) {
		sels = sels[:cfg.MaxBanks]
	}

	g := ctrl.Device().Geometry()
	// The sampling scratch buffer is sized here, not lazily in sampleWord,
	// so the steady-state sampling path never allocates.
	t := &TRNG{ctrl: ctrl, cfg: cfg, scratch: make([]uint64, g.WordBits/64)}
	for _, s := range sels {
		if s.Bits() == 0 {
			return nil, fmt.Errorf("core: bank %d selection has no RNG cells", s.Bank)
		}
		if s.Word1.Row == s.Word2.Row {
			return nil, fmt.Errorf("core: bank %d selection uses a single row %d", s.Bank, s.Word1.Row)
		}
		// Line 4: write the data pattern to the chosen DRAM words and their
		// neighbouring cells (we write the full rows and the adjacent rows).
		for _, w := range []WordRef{s.Word1, s.Word2} {
			for _, row := range []int{w.Row - 1, w.Row, w.Row + 1} {
				if row < 0 || row >= g.RowsPerBank {
					continue
				}
				data, err := cfg.Pattern.FillRow(row, g.ColsPerRow)
				if err != nil {
					return nil, err
				}
				if err := ctrl.Device().WriteRow(s.Bank, row, data); err != nil {
					return nil, err
				}
			}
		}
		tb := trngBank{bank: s.Bank}
		var err error
		tb.word1, err = t.prepareWord(s.Bank, s.Word1)
		if err != nil {
			return nil, err
		}
		tb.word2, err = t.prepareWord(s.Bank, s.Word2)
		if err != nil {
			return nil, err
		}
		t.sels = append(t.sels, tb)
	}
	return t, nil
}

func (t *TRNG) prepareWord(bank int, w WordRef) (trngWord, error) {
	g := t.ctrl.Device().Geometry()
	if w.WordIdx < 0 || w.WordIdx >= g.WordsPerRow() || w.Row < 0 || w.Row >= g.RowsPerBank {
		return trngWord{}, fmt.Errorf("core: word %+v outside device geometry", w)
	}
	nw := g.WordBits / 64
	rowData, err := t.ctrl.Device().ReadRowRaw(bank, w.Row)
	if err != nil {
		return trngWord{}, err
	}
	tw := trngWord{
		row:      w.Row,
		wordIdx:  w.WordIdx,
		original: append([]uint64(nil), rowData[w.WordIdx*nw:(w.WordIdx+1)*nw]...),
	}
	for _, addr := range addrSetForSelection(w) {
		if addr.Bank != bank {
			return trngWord{}, fmt.Errorf("core: RNG cell %+v does not belong to bank %d", addr, bank)
		}
		col := addr.Col - w.WordIdx*g.WordBits
		if col < 0 || col >= g.WordBits {
			return trngWord{}, fmt.Errorf("core: RNG cell %+v is not inside word %d", addr, w.WordIdx)
		}
		tw.cols = append(tw.cols, col)
	}
	sort.Ints(tw.cols)
	return tw, nil
}

// Banks returns the number of banks the generator samples in parallel.
func (t *TRNG) Banks() int { return len(t.sels) }

// BitsPerIteration returns the number of random bits harvested by one pass
// of the Algorithm 2 core loop over all selected banks.
func (t *TRNG) BitsPerIteration() int {
	n := 0
	for _, s := range t.sels {
		n += len(s.word1.cols) + len(s.word2.cols)
	}
	return n
}

// BitsGenerated returns the total number of random bits harvested so far.
func (t *TRNG) BitsGenerated() int64 { return t.bitsGenerated }

// sampleWord performs one reduced-latency read of a selected word, appends
// the RNG-cell values to the bit queue, and restores the word's original
// content (lines 8–11 / 12–15 of Algorithm 2).
func (t *TRNG) sampleWord(bank int, w *trngWord) error {
	got := t.scratch
	if _, err := t.ctrl.ReadWordInto(bank, w.row, w.wordIdx, got); err != nil {
		return err
	}
	for _, col := range w.cols {
		bit := byte((got[col/64] >> uint(col%64)) & 1)
		t.bits.Append(bit)
		t.bitsGenerated++
	}
	if _, err := t.ctrl.WriteWord(bank, w.row, w.wordIdx, w.original); err != nil {
		return err
	}
	return nil
}

// harvest runs Algorithm 2's core loop until at least n bits are queued.
func (t *TRNG) harvest(n int) error {
	if err := t.ctrl.SetReducedTRCD(t.cfg.TRCDNS); err != nil {
		return err
	}
	defer t.ctrl.ResetTRCD()
	for t.bits.Len() < n {
		for i := range t.sels {
			s := &t.sels[i]
			if err := t.sampleWord(s.bank, &s.word1); err != nil {
				return err
			}
			if err := t.sampleWord(s.bank, &s.word2); err != nil {
				return err
			}
		}
	}
	return nil
}

// ReadBits returns n random bits, one bit per returned byte (values 0 or 1).
func (t *TRNG) ReadBits(n int) ([]byte, error) {
	if n <= 0 {
		return nil, fmt.Errorf("core: bit count must be positive, got %d", n)
	}
	if err := t.harvest(n); err != nil {
		return nil, err
	}
	return t.bits.PopBits(n), nil
}

// ReadPacked fills p with random bytes straight from the packed bit queue —
// the same byte encoding as Read, with no intermediate bit-per-byte slice and
// no allocation in steady state.
//
//drange:noalloc
func (t *TRNG) ReadPacked(p []byte) error {
	if len(p) == 0 {
		return nil
	}
	if len(p) > math.MaxInt/8 {
		return fmt.Errorf("core: read of %d bytes overflows the bit counter", len(p))
	}
	if err := t.harvest(len(p) * 8); err != nil {
		return err
	}
	t.bits.PopPacked(p)
	return nil
}

// Read fills p with random bytes, implementing io.Reader. It never returns a
// short read except on error.
func (t *TRNG) Read(p []byte) (int, error) {
	if err := t.ReadPacked(p); err != nil {
		return 0, err
	}
	return len(p), nil
}

// Uint64 returns a 64-bit random value.
func (t *TRNG) Uint64() (uint64, error) {
	var buf [8]byte
	if _, err := t.Read(buf[:]); err != nil {
		return 0, err
	}
	return BEUint64(buf), nil
}

var _ io.Reader = (*TRNG)(nil)

// maxSamplePrealloc bounds the up-front allocation of SampleCell's output
// buffer (one byte per sample); larger requests grow incrementally.
const maxSamplePrealloc = 1 << 20

// SampleCell reads a single identified RNG cell n times with the reduced
// activation latency and returns its value stream (one bit per byte). This
// is the procedure behind Table 1: the paper samples each identified RNG
// cell one million times and feeds the resulting bitstream to the NIST test
// suite.
func SampleCell(ctrl *memctrl.Controller, cell RNGCell, pat pattern.Pattern, trcdNS float64, n int) ([]byte, error) {
	if n <= 0 {
		return nil, fmt.Errorf("core: sample count must be positive, got %d", n)
	}
	g := ctrl.Device().Geometry()
	addr := cell.Addr
	if addr.Bank < 0 || addr.Bank >= g.Banks || addr.Row < 0 || addr.Row >= g.RowsPerBank ||
		addr.Col < 0 || addr.Col >= g.ColsPerRow {
		return nil, fmt.Errorf("core: cell %+v outside device geometry", addr)
	}
	wordIdx := addr.Col / g.WordBits
	nw := g.WordBits / 64

	// Maintain the data pattern in the cell's row and neighbours, keeping
	// the cell's word to restore after each read (WriteRow copies).
	var original []uint64
	for _, row := range []int{addr.Row - 1, addr.Row, addr.Row + 1} {
		if row < 0 || row >= g.RowsPerBank {
			continue
		}
		data, err := pat.FillRow(row, g.ColsPerRow)
		if err != nil {
			return nil, err
		}
		if err := ctrl.Device().WriteRow(addr.Bank, row, data); err != nil {
			return nil, err
		}
		if row == addr.Row {
			original = data[wordIdx*nw : (wordIdx+1)*nw]
		}
	}

	if err := ctrl.SetReducedTRCD(trcdNS); err != nil {
		return nil, err
	}
	defer ctrl.ResetTRCD()

	colInWord := addr.Col - wordIdx*g.WordBits
	// n is caller-controlled; cap the prealloc and let append grow the slice
	// so an oversized request cannot allocate unbounded memory up front.
	prealloc := n
	if prealloc > maxSamplePrealloc {
		prealloc = maxSamplePrealloc
	}
	out := make([]byte, 0, prealloc)
	for i := 0; i < n; i++ {
		got, _, err := ctrl.ReadWord(addr.Bank, addr.Row, wordIdx)
		if err != nil {
			return nil, err
		}
		out = append(out, byte((got[colInWord/64]>>uint(colInWord%64))&1))
		if _, err := ctrl.WriteWord(addr.Bank, addr.Row, wordIdx, original); err != nil {
			return nil, err
		}
		if err := ctrl.PrechargeBank(addr.Bank); err != nil {
			return nil, err
		}
	}
	return out, nil
}
