package dram

import (
	"fmt"
	"sync"

	"repro/internal/timing"
)

// Config describes one simulated DRAM device.
type Config struct {
	// Serial is the device serial number; it seeds the procedural process
	// variation, so two devices with different serials have different (but
	// individually stable) weak cells.
	Serial uint64

	// Manufacturer selects the built-in manufacturer profile. Ignored when
	// Profile is non-nil.
	Manufacturer Manufacturer

	// Profile optionally overrides the built-in manufacturer profile.
	Profile *Profile

	// Geometry describes the device organisation. The zero value selects
	// DefaultLPDDR4Geometry or DefaultDDR3Geometry based on Timing.Type.
	Geometry Geometry

	// Timing is the JEDEC timing parameter set of the device. The zero
	// value selects LPDDR4-3200 defaults.
	Timing timing.Params

	// Noise is the per-access noise source. Nil selects a PhysicalNoise
	// source (OS entropy).
	Noise NoiseSource
}

// Device is one simulated DRAM device (a channel's worth of chips operating
// in lock step, as seen by a memory controller). It models row-buffer
// semantics, activation-failure injection when activated with a reduced
// tRCD, per-cell process variation, data-pattern coupling and temperature
// dependence.
//
// Device methods are safe for concurrent use by multiple goroutines; the
// paper exploits bank-level parallelism and callers may drive different banks
// concurrently.
type Device struct {
	serial  uint64
	profile Profile
	geom    Geometry
	timing  timing.Params
	noise   NoiseSource
	// bankNoise caches the BankNoiseSource capability of noise (nil when
	// unsupported) so the per-word failure-injection path does not repeat
	// the type assertion.
	bankNoise BankNoiseSource

	mu           sync.Mutex
	temperatureC float64        // drange:guardedby mu
	banks        []*bankStorage // drange:guardedby mu

	// weakCols caches, per bank and subarray, the weak column indices
	// grouped by DRAM word, so failure injection only inspects candidate
	// cells.
	weakCols map[weakKey][][]int // drange:guardedby mu

	// chars caches the procedurally derived per-cell character, keyed by
	// packed (bank, row, col); inject caches, per (bank, row, wordIdx), the
	// word's weak columns together with their characters. The character is a
	// pure function of the device identity, so both caches are transparent;
	// they remove the dominant hashing cost from the failure-injection hot
	// path, where generation re-reads the same few words forever.
	chars  map[uint64]CellCharacter // drange:guardedby mu
	inject map[uint64]*injectInfo   // drange:guardedby mu

	stats DeviceStats // drange:guardedby mu
}

// injectInfo is everything failure injection needs about one DRAM word: the
// weak column indices and, aligned with them, the cell characters.
type injectInfo struct {
	cols  []int
	chars []CellCharacter
}

// DeviceStats counts the operations a device has performed; useful for
// asserting experimental methodology in tests and for energy accounting
// cross-checks. Backends that cannot observe a counter (for example
// InjectedFlips on a replayed log) report it as zero.
type DeviceStats struct {
	Activates      int64 `json:"activates"`
	Precharges     int64 `json:"precharges"`
	Reads          int64 `json:"reads"`
	Writes         int64 `json:"writes"`
	Refreshes      int64 `json:"refreshes"`
	InjectedFlips  int64 `json:"injected_flips"`
	ReducedTRCDAct int64 `json:"reduced_trcd_activates"`
}

type weakKey struct {
	bank, sub int
}

// bankStorage holds the mutable state of one bank: lazily-allocated row data
// and the row-buffer state. rows is direct-indexed by row (nil = not yet
// materialised): one pointer per row costs kilobytes while keeping the
// per-access lookup a bounds-checked load instead of a map probe.
type bankStorage struct {
	rows [][]uint64

	openRow            int
	open               bool
	activatedTRCD      float64
	firstAccessPending bool
}

// NewDevice constructs a simulated device from cfg.
//
//drange:holds mu construction: the device is not shared until NewDevice returns
func NewDevice(cfg Config) (*Device, error) {
	prof := Profile{}
	if cfg.Profile != nil {
		prof = *cfg.Profile
	} else {
		m := cfg.Manufacturer
		if m == "" {
			m = ManufacturerA
		}
		p, err := ProfileFor(m)
		if err != nil {
			return nil, err
		}
		prof = p
	}
	if err := prof.Validate(); err != nil {
		return nil, err
	}

	tp := cfg.Timing
	if tp.ClockNS == 0 {
		tp = timing.NewLPDDR4()
	}
	if err := tp.Validate(); err != nil {
		return nil, err
	}

	geom := cfg.Geometry
	if geom.Banks == 0 {
		if tp.Type == timing.DDR3 {
			geom = DefaultDDR3Geometry()
		} else {
			geom = DefaultLPDDR4Geometry()
		}
	}
	if err := geom.Validate(); err != nil {
		return nil, err
	}

	// The character caches pack (bank, row, col/wordIdx) into 64-bit keys
	// (16/24/24 bits); reject geometries the packing cannot address rather
	// than silently colliding cache entries.
	if geom.Banks >= 1<<16 || geom.RowsPerBank >= 1<<24 || geom.ColsPerRow >= 1<<24 || geom.WordsPerRow() >= 1<<16 {
		return nil, fmt.Errorf("dram: geometry %d banks x %d rows x %d cols (%d words/row) exceeds the addressable simulation bounds (2^16 banks, 2^24 rows, 2^24 cols, 2^16 words/row)",
			geom.Banks, geom.RowsPerBank, geom.ColsPerRow, geom.WordsPerRow())
	}

	noise := cfg.Noise
	if noise == nil {
		noise = NewPhysicalNoise()
	}

	bankNoise, _ := noise.(BankNoiseSource)
	d := &Device{
		serial:       cfg.Serial,
		profile:      prof,
		geom:         geom,
		timing:       tp,
		noise:        noise,
		bankNoise:    bankNoise,
		temperatureC: BaselineTemperatureC,
		banks:        make([]*bankStorage, geom.Banks),
		weakCols:     make(map[weakKey][][]int),
		chars:        make(map[uint64]CellCharacter),
		inject:       make(map[uint64]*injectInfo),
	}
	for i := range d.banks {
		d.banks[i] = &bankStorage{rows: make([][]uint64, geom.RowsPerBank), openRow: -1}
	}
	return d, nil
}

// Serial returns the device serial number.
func (d *Device) Serial() uint64 { return d.serial }

// Manufacturer returns the manufacturer of the device.
func (d *Device) Manufacturer() Manufacturer { return d.profile.Manufacturer }

// Profile returns the device's manufacturing profile.
func (d *Device) Profile() Profile { return d.profile }

// Geometry returns the device geometry.
func (d *Device) Geometry() Geometry { return d.geom }

// Timing returns the device's JEDEC timing parameters.
func (d *Device) Timing() timing.Params { return d.timing }

// OpStats returns a snapshot of the device's operation counters.
func (d *Device) OpStats() DeviceStats {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.stats
}

// SetTemperature sets the DRAM temperature in degrees Celsius.
func (d *Device) SetTemperature(c float64) error {
	if c < -40 || c > 150 {
		return fmt.Errorf("dram: temperature %v °C outside plausible operating range", c)
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	d.temperatureC = c
	return nil
}

// Temperature returns the current DRAM temperature in degrees Celsius.
func (d *Device) Temperature() float64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.temperatureC
}

// CellCharacter returns the manufacturing character of the cell at
// (bank, row, col).
func (d *Device) CellCharacter(bank, row, col int) (CellCharacter, error) {
	if err := d.checkCell(bank, row, col); err != nil {
		return CellCharacter{}, err
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.cellCharacterLocked(bank, row, col), nil
}

// cellCharacterLocked returns the cached character of (bank, row, col),
// deriving and caching it on first touch. Callers hold d.mu.
func (d *Device) cellCharacterLocked(bank, row, col int) CellCharacter {
	key := uint64(bank)<<48 | uint64(row)<<24 | uint64(col)
	if c, ok := d.chars[key]; ok {
		return c
	}
	c := cellCharacter(d.serial, bank, row, col, d.geom, d.profile)
	d.chars[key] = c
	return c
}

// injectInfoLocked returns (computing and caching if needed) the injection
// data of DRAM word (bank, row, wordIdx). Callers hold d.mu.
func (d *Device) injectInfoLocked(bank, row, wordIdx int) *injectInfo {
	key := uint64(bank)<<40 | uint64(row)<<16 | uint64(wordIdx)
	if info, ok := d.inject[key]; ok {
		return info
	}
	weak := d.weakColumnsLocked(bank, d.subarrayOf(row))[wordIdx]
	info := &injectInfo{cols: weak, chars: make([]CellCharacter, len(weak))}
	for i, col := range weak {
		info.chars[i] = cellCharacter(d.serial, bank, row, col, d.geom, d.profile)
	}
	d.inject[key] = info
	return info
}

// WeakColumnsInWord returns the column indices (absolute within the row) of
// weak columns that fall inside DRAM word wordIdx for rows of the subarray
// containing row.
func (d *Device) WeakColumnsInWord(bank, row, wordIdx int) ([]int, error) {
	if bank < 0 || bank >= d.geom.Banks {
		return nil, fmt.Errorf("dram: bank %d out of range [0,%d)", bank, d.geom.Banks)
	}
	if row < 0 || row >= d.geom.RowsPerBank {
		return nil, fmt.Errorf("dram: row %d out of range [0,%d)", row, d.geom.RowsPerBank)
	}
	if wordIdx < 0 || wordIdx >= d.geom.WordsPerRow() {
		return nil, fmt.Errorf("dram: word %d out of range [0,%d)", wordIdx, d.geom.WordsPerRow())
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	sub := d.subarrayOf(row)
	return d.weakColumnsLocked(bank, sub)[wordIdx], nil
}

func (d *Device) subarrayOf(row int) int {
	subRows := d.profile.SubarrayRows
	if subRows <= 0 {
		subRows = d.geom.SubarrayRows
	}
	return row / subRows
}

// weakColumnsLocked returns (computing and caching if needed) the weak column
// indices of (bank, subarray), grouped by DRAM word index.
func (d *Device) weakColumnsLocked(bank, sub int) [][]int {
	key := weakKey{bank, sub}
	if cols, ok := d.weakCols[key]; ok {
		return cols
	}
	words := d.geom.WordsPerRow()
	grouped := make([][]int, words)
	for col := 0; col < d.geom.ColsPerRow; col++ {
		if columnIsWeak(d.serial, bank, sub, col, d.profile) {
			w := col / d.geom.WordBits
			grouped[w] = append(grouped[w], col)
		}
	}
	d.weakCols[key] = grouped
	return grouped
}

func (d *Device) checkBank(bank int) error {
	if bank < 0 || bank >= d.geom.Banks {
		return fmt.Errorf("dram: bank %d out of range [0,%d)", bank, d.geom.Banks)
	}
	return nil
}

func (d *Device) checkRow(bank, row int) error {
	if err := d.checkBank(bank); err != nil {
		return err
	}
	if row < 0 || row >= d.geom.RowsPerBank {
		return fmt.Errorf("dram: row %d out of range [0,%d)", row, d.geom.RowsPerBank)
	}
	return nil
}

func (d *Device) checkCell(bank, row, col int) error {
	if err := d.checkRow(bank, row); err != nil {
		return err
	}
	if col < 0 || col >= d.geom.ColsPerRow {
		return fmt.Errorf("dram: column %d out of range [0,%d)", col, d.geom.ColsPerRow)
	}
	return nil
}

// startupRow returns the deterministic power-up content of (bank, row).
func (d *Device) startupRow(bank, row int) []uint64 {
	n := d.geom.rowU64s()
	data := make([]uint64, n)
	for i := range data {
		data[i] = mix64(d.serial, uint64(bank), uint64(row), uint64(i), saltStartup)
	}
	return data
}

// StartupRow returns the device's power-up content for (bank, row): the
// values cells settle to at power-on before any write, used by the
// startup-value TRNG baselines. It does not disturb the device state.
func (d *Device) StartupRow(bank, row int) ([]uint64, error) {
	if err := d.checkRow(bank, row); err != nil {
		return nil, err
	}
	return d.startupRow(bank, row), nil
}

// rowDataLocked returns the stored content of (bank, row), materialising the
// startup content lazily on first touch.
func (d *Device) rowDataLocked(bank, row int) []uint64 {
	b := d.banks[bank]
	if data := b.rows[row]; data != nil {
		return data
	}
	data := d.startupRow(bank, row)
	b.rows[row] = data
	return data
}

func getBit(data []uint64, col int) uint64 {
	return (data[col>>6] >> uint(col&63)) & 1
}

func flipBit(data []uint64, col int) {
	data[col>>6] ^= 1 << uint(col&63)
}

func setBit(data []uint64, col int, v uint64) {
	if v != 0 {
		data[col>>6] |= 1 << uint(col&63)
	} else {
		data[col>>6] &^= 1 << uint(col&63)
	}
}

// Activate opens row in bank with the given activation latency (tRCD, in
// nanoseconds). Activating with a latency below the cell-dependent critical
// latency arms activation-failure injection for the first DRAM word read
// from the row. Activating an already-open bank is an error (the controller
// must precharge first), matching real DRAM behaviour.
func (d *Device) Activate(bank, row int, trcdNS float64) error {
	if err := d.checkRow(bank, row); err != nil {
		return err
	}
	if trcdNS <= 0 {
		return fmt.Errorf("dram: activation latency must be positive, got %v", trcdNS)
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	b := d.banks[bank]
	if b.open {
		return fmt.Errorf("dram: bank %d already has row %d open", bank, b.openRow)
	}
	b.open = true
	b.openRow = row
	b.activatedTRCD = trcdNS
	b.firstAccessPending = true
	d.stats.Activates++
	if trcdNS < d.timing.TRCD {
		d.stats.ReducedTRCDAct++
	}
	return nil
}

// Precharge closes the open row of bank. Precharging an already-closed bank
// is a no-op, as in real devices.
func (d *Device) Precharge(bank int) error {
	if err := d.checkBank(bank); err != nil {
		return err
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	b := d.banks[bank]
	b.open = false
	b.openRow = -1
	b.firstAccessPending = false
	d.stats.Precharges++
	return nil
}

// OpenRow returns the row currently open in bank, or -1 if the bank is
// precharged.
func (d *Device) OpenRow(bank int) (int, error) {
	if err := d.checkBank(bank); err != nil {
		return 0, err
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	b := d.banks[bank]
	if !b.open {
		return -1, nil
	}
	return b.openRow, nil
}

// Refresh models an all-bank refresh. All banks must be precharged. Data
// retention is not modelled (cells never leak in this simulator), so the
// operation only updates statistics.
func (d *Device) Refresh() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	for i, b := range d.banks {
		if b.open {
			return fmt.Errorf("dram: refresh issued while bank %d has row %d open", i, b.openRow)
		}
	}
	d.stats.Refreshes++
	return nil
}

// ReadWord reads DRAM word wordIdx from the row currently open in bank. If
// the row was activated with a reduced tRCD and this is the first word
// accessed since the activation, activation failures are injected: each
// vulnerable cell in the word may return (and restore into the array) the
// wrong value, with a probability determined by its process variation, the
// surrounding data pattern, and the device temperature, resolved by the
// device's noise source. The returned slice is a copy owned by the caller.
func (d *Device) ReadWord(bank, wordIdx int) ([]uint64, error) {
	out := make([]uint64, d.geom.wordU64s())
	if err := d.ReadWordInto(bank, wordIdx, out); err != nil {
		return nil, err
	}
	return out, nil
}

// ReadWordInto is ReadWord writing into dst (which must hold wordU64s
// uint64s): the allocation-free fast path sampling loops use through
// device.WordReaderInto. Failure-injection semantics are identical.
func (d *Device) ReadWordInto(bank, wordIdx int, dst []uint64) error {
	if err := d.checkBank(bank); err != nil {
		return err
	}
	if wordIdx < 0 || wordIdx >= d.geom.WordsPerRow() {
		return fmt.Errorf("dram: word %d out of range [0,%d)", wordIdx, d.geom.WordsPerRow())
	}
	nw := d.geom.wordU64s()
	if len(dst) != nw {
		return fmt.Errorf("dram: destination length %d, want %d uint64s", len(dst), nw)
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	b := d.banks[bank]
	if !b.open {
		return fmt.Errorf("dram: read from bank %d with no open row", bank)
	}
	row := b.openRow
	data := d.rowDataLocked(bank, row)

	if b.firstAccessPending {
		b.firstAccessPending = false
		if b.activatedTRCD < d.timing.TRCD {
			d.injectFailuresLocked(bank, row, wordIdx, b.activatedTRCD, data)
		}
	}

	d.stats.Reads++
	copy(dst, data[wordIdx*nw:(wordIdx+1)*nw])
	return nil
}

// WriteWord writes DRAM word wordIdx of the row currently open in bank.
func (d *Device) WriteWord(bank, wordIdx int, word []uint64) error {
	if err := d.checkBank(bank); err != nil {
		return err
	}
	if wordIdx < 0 || wordIdx >= d.geom.WordsPerRow() {
		return fmt.Errorf("dram: word %d out of range [0,%d)", wordIdx, d.geom.WordsPerRow())
	}
	nw := d.geom.wordU64s()
	if len(word) != nw {
		return fmt.Errorf("dram: word length %d, want %d uint64s", len(word), nw)
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	b := d.banks[bank]
	if !b.open {
		return fmt.Errorf("dram: write to bank %d with no open row", bank)
	}
	// A write is a column access: it clears the first-access window just as
	// a read does (subsequent reads come from fully-restored cells).
	b.firstAccessPending = false
	data := d.rowDataLocked(bank, b.openRow)
	copy(data[wordIdx*nw:(wordIdx+1)*nw], word)
	d.stats.Writes++
	return nil
}

// WriteRow writes the full content of (bank, row) directly, bypassing the
// command interface. It is a profiling convenience equivalent to opening the
// row and writing every word with nominal timing.
func (d *Device) WriteRow(bank, row int, data []uint64) error {
	if err := d.checkRow(bank, row); err != nil {
		return err
	}
	if len(data) != d.geom.rowU64s() {
		return fmt.Errorf("dram: row data length %d, want %d uint64s", len(data), d.geom.rowU64s())
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	stored := make([]uint64, len(data))
	copy(stored, data)
	d.banks[bank].rows[row] = stored
	d.stats.Writes += int64(d.geom.WordsPerRow())
	return nil
}

// ReadRowRaw returns the stored content of (bank, row) without opening the
// row and without failure injection. It is a verification convenience; real
// controllers cannot do this.
func (d *Device) ReadRowRaw(bank, row int) ([]uint64, error) {
	if err := d.checkRow(bank, row); err != nil {
		return nil, err
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	data := d.rowDataLocked(bank, row)
	out := make([]uint64, len(data))
	copy(out, data)
	return out, nil
}

// injectFailuresLocked applies activation-failure injection to DRAM word
// wordIdx of row (whose stored data is data), for an activation performed
// with latency trcdNS. Failed cells are flipped both in the returned data and
// in the stored array (the sense amplifier restores the wrong value).
func (d *Device) injectFailuresLocked(bank, row, wordIdx int, trcdNS float64, data []uint64) {
	info := d.injectInfoLocked(bank, row, wordIdx)
	if len(info.cols) == 0 {
		return
	}
	// Materialise the neighbouring rows once per injection instead of once
	// per neighbour probe; the slices alias the stored rows, so intra-word
	// flips stay visible to later cells exactly as before.
	var above, below []uint64
	if row > 0 {
		above = d.rowDataLocked(bank, row-1)
	}
	if row < d.geom.RowsPerBank-1 {
		below = d.rowDataLocked(bank, row+1)
	}
	temp := d.temperatureC
	for i, col := range info.cols {
		c := &info.chars[i]
		stored := getBit(data, col)
		if !c.VulnerableWhenStoring(stored) {
			continue
		}
		diff := differingNeighbors(data, above, below, col, d.geom.ColsPerRow, stored)
		margin := trcdNS - c.EffectiveTCritNS(temp, diff)
		// The bitline differential at read time is the margin plus analog
		// noise. Below the metastable window the sense amplifier latches the
		// wrong value; inside the window it is metastable and resolves from
		// symmetric noise — a fair coin flip drawn from the noise source.
		differential := margin + c.NoiseSigmaNS*d.gaussianFor(bank)
		fail := false
		switch {
		case differential < -c.MetastableWindowNS:
			fail = true
		case differential <= c.MetastableWindowNS:
			fail = d.gaussianFor(bank) < 0
		}
		if fail {
			flipBit(data, col)
			d.stats.InjectedFlips++
		}
	}
}

// gaussianFor returns one analog-noise sample attributed to bank. Per-bank
// noise sources tie each draw to the bank being accessed, so a bank's
// failure outcomes depend only on its own command order (see
// BankNoiseSource); other sources draw from their single shared stream.
func (d *Device) gaussianFor(bank int) float64 {
	if d.bankNoise != nil {
		return d.bankNoise.GaussianFor(bank)
	}
	return d.noise.Gaussian()
}

// differingNeighborsLocked counts the neighbouring cells (left, right, above,
// below) that store the opposite value of the victim cell.
func (d *Device) differingNeighborsLocked(bank, row, col int, stored uint64) int {
	var above, below []uint64
	if row > 0 {
		above = d.rowDataLocked(bank, row-1)
	}
	if row < d.geom.RowsPerBank-1 {
		below = d.rowDataLocked(bank, row+1)
	}
	return differingNeighbors(d.rowDataLocked(bank, row), above, below, col, d.geom.ColsPerRow, stored)
}

// differingNeighbors counts the neighbours of (row data, col) storing the
// opposite value, given the already-materialised row and its vertical
// neighbours (nil at array edges).
func differingNeighbors(data, above, below []uint64, col, colsPerRow int, stored uint64) int {
	diff := 0
	if col > 0 && getBit(data, col-1) != stored {
		diff++
	}
	if col < colsPerRow-1 && getBit(data, col+1) != stored {
		diff++
	}
	if above != nil && getBit(above, col) != stored {
		diff++
	}
	if below != nil && getBit(below, col) != stored {
		diff++
	}
	return diff
}

// FailureProbabilityAt returns the model's failure probability for the cell
// at (bank, row, col) if it were read immediately after an activation with
// the given tRCD at the current device temperature, given the currently
// stored data pattern. It returns 0 for cells that cannot fail (non-weak
// columns or a stored value of the non-vulnerable polarity).
func (d *Device) FailureProbabilityAt(bank, row, col int, trcdNS float64) (float64, error) {
	if err := d.checkCell(bank, row, col); err != nil {
		return 0, err
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	c := d.cellCharacterLocked(bank, row, col)
	if !c.WeakColumn {
		return 0, nil
	}
	data := d.rowDataLocked(bank, row)
	stored := getBit(data, col)
	if !c.VulnerableWhenStoring(stored) {
		return 0, nil
	}
	diff := d.differingNeighborsLocked(bank, row, col, stored)
	return c.FailureProbability(trcdNS, d.temperatureC, diff), nil
}
