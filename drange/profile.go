package drange

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/dram"
	"repro/internal/pattern"
)

// ProfileVersion is the profile file format version this package writes.
// Decoding rejects versions newer than this; older versions remain readable
// within the compatibility policy documented in the README.
const ProfileVersion = 1

// checksumPrefix tags the integrity digest algorithm in the profile file.
const checksumPrefix = "sha256:"

// CharacterizationParams records the identification parameters a profile was
// characterized with, so an Open'd generator reproduces the original
// sampling conditions exactly.
type CharacterizationParams struct {
	// TRCDNS is the reduced activation latency (ns) used for identification
	// and, by default, generation.
	TRCDNS float64 `json:"trcd_ns"`
	// Samples, Tolerance, MaxBiasDelta and ScreenIterations are the Section
	// 6.1 identification parameters (see the corresponding With* options).
	Samples          int     `json:"samples"`
	Tolerance        float64 `json:"tolerance"`
	MaxBiasDelta     float64 `json:"max_bias_delta"`
	ScreenIterations int     `json:"screen_iterations"`
	// Pattern is the canonical name of the data pattern maintained around
	// the RNG cells ("SOLID0", "CHECKERED0", ...).
	Pattern string `json:"pattern"`
	// RowsPerBank, WordsPerRow and Banks describe the region characterized.
	RowsPerBank int `json:"rows_per_bank"`
	WordsPerRow int `json:"words_per_row"`
	Banks       int `json:"banks"`
	// Deterministic records whether the device was opened with the seeded
	// noise source; Open reuses the same mode unless overridden.
	Deterministic bool `json:"deterministic"`
}

// Profile is the serializable result of one device characterization: the
// device identity, the identified RNG cells, and the per-bank DRAM-word
// selections Algorithm 2 samples. Characterization is a one-time-per-device
// step (Sections 6.1–6.2 of the paper); a saved profile lets Open start
// generating in milliseconds without re-running it.
//
// Profiles marshal to versioned JSON with an integrity checksum. Mutating a
// profile invalidates the checksum; call Seal to recompute it.
type Profile struct {
	// Version is the file format version (ProfileVersion when written by
	// this package).
	Version int `json:"version"`
	// Manufacturer and Serial identify the simulated device the profile was
	// characterized on. Opening a profile against a different device is an
	// error: RNG-cell locations are per-device process variation.
	Manufacturer string `json:"manufacturer"`
	Serial       uint64 `json:"serial"`
	// Geometry is the device organisation the cells were identified under.
	Geometry Geometry `json:"geometry"`
	// Characterization records the identification parameters used.
	Characterization CharacterizationParams `json:"characterization"`
	// Cells lists every identified RNG cell.
	Cells []Cell `json:"cells"`
	// Selections lists the per-bank word pairs chosen for generation, in
	// descending data-rate order.
	Selections []Selection `json:"selections"`
	// Deltas is the ordered chain of re-characterization deltas applied on
	// top of the base characterization (empty for a freshly characterized
	// profile; omitted from the encoding when empty, so v1 profiles without
	// deltas are byte-identical to those written before deltas existed).
	// Each delta replaces the cells and selections of the banks it names;
	// EffectiveCells/EffectiveSelections resolve the chain.
	Deltas []*ProfileDelta `json:"deltas,omitempty"`
	// Checksum is the integrity digest ("sha256:<hex>") over the profile's
	// canonical JSON with this field empty.
	Checksum string `json:"checksum"`
}

// ProfileDeltaVersion is the delta wire format version this package writes.
const ProfileDeltaVersion = 1

// DeltaCharacterization records the targeted re-characterization parameters
// a delta was produced with — the profiler.Recharacterize configuration, not
// the full Section 6.1 sweep parameters of the base profile.
type DeltaCharacterization struct {
	TRCDNS float64 `json:"trcd_ns"`
	// Iterations is the Algorithm 1 iteration count of each stability round;
	// ScreenIterations is the narrowing screen's count.
	Iterations       int `json:"iterations"`
	ScreenIterations int `json:"screen_iterations"`
	// Rounds and MaxDrift are the stability acceptance parameters.
	Rounds   int     `json:"rounds"`
	MaxDrift float64 `json:"max_drift"`
	// LowFprob/HighFprob bound the accepted mean failure probability.
	LowFprob  float64 `json:"low_fprob"`
	HighFprob float64 `json:"high_fprob"`
	Pattern   string  `json:"pattern"`
}

// ProfileDelta is one versioned, checksummed re-characterization of a subset
// of a profile's banks. Deltas form a chain: each one names the checksum of
// the exact profile state it was measured against (the base profile plus all
// earlier deltas), so a delta can never be replayed onto a profile it does
// not belong to, reordered, or carried across devices.
type ProfileDelta struct {
	// Version is the delta wire format version (ProfileDeltaVersion when
	// written by this package).
	Version int `json:"version"`
	// Sequence is the delta's 1-based position in the profile's chain.
	Sequence int `json:"sequence"`
	// BaseChecksum is the sealed checksum of the profile the delta applies
	// to — the base profile with every earlier delta appended.
	BaseChecksum string `json:"base_checksum"`
	// Reason records why the member was re-characterized (the quarantine
	// reason), for operators reading the profile.
	Reason string `json:"reason,omitempty"`
	// Characterization records the targeted pass parameters.
	Characterization DeltaCharacterization `json:"characterization"`
	// Banks lists the banks this delta re-characterizes, ascending. The
	// delta replaces those banks' cells and selections wholesale; a listed
	// bank with no surviving selection is dropped from generation.
	Banks []int `json:"banks"`
	// Cells lists the re-characterized RNG cells of the affected banks.
	Cells []Cell `json:"cells"`
	// Selections lists the affected banks' new word pairs.
	Selections []Selection `json:"selections"`
	// Checksum is the integrity digest ("sha256:<hex>") over the delta's
	// canonical JSON with this field empty.
	Checksum string `json:"checksum"`
}

// computeChecksum digests the delta's canonical JSON with Checksum blank.
func (d *ProfileDelta) computeChecksum() (string, error) {
	shadow := *d
	shadow.Checksum = ""
	data, err := json.Marshal(&shadow)
	if err != nil {
		return "", fmt.Errorf("drange: computing profile delta checksum: %w", err)
	}
	sum := sha256.Sum256(data)
	return checksumPrefix + hex.EncodeToString(sum[:]), nil
}

// Seal recomputes the delta's integrity checksum after a mutation.
func (d *ProfileDelta) Seal() error {
	sum, err := d.computeChecksum()
	if err != nil {
		return err
	}
	d.Checksum = sum
	return nil
}

// validateAgainst checks the delta's own integrity and its structural
// consistency against the profile's geometry. seq is the delta's expected
// 1-based chain position and base the checksum of the profile state it must
// have been measured against.
func (d *ProfileDelta) validateAgainst(p *Profile, seq int, base string) error {
	if d.Version <= 0 {
		return fmt.Errorf("drange: profile delta %d has no version", seq)
	}
	if d.Version > ProfileDeltaVersion {
		return fmt.Errorf("drange: profile delta %d version %d is newer than the supported version %d; upgrade this package to read it", seq, d.Version, ProfileDeltaVersion)
	}
	sum, err := d.computeChecksum()
	if err != nil {
		return err
	}
	if d.Checksum == "" {
		return fmt.Errorf("drange: profile delta %d has no integrity checksum; call Seal after mutating a delta", seq)
	}
	if d.Checksum != sum {
		return fmt.Errorf("drange: profile delta %d integrity check failed (checksum mismatch)", seq)
	}
	if d.Sequence != seq {
		return fmt.Errorf("drange: profile delta claims chain position %d, found at position %d; the delta chain was reordered", d.Sequence, seq)
	}
	if d.BaseChecksum != base {
		return fmt.Errorf("drange: profile delta %d was measured against a different profile state (base checksum mismatch); the chain was edited or the delta replayed onto the wrong profile", seq)
	}
	if d.Characterization.TRCDNS <= 0 {
		return fmt.Errorf("drange: profile delta %d tRCD %v ns must be positive", seq, d.Characterization.TRCDNS)
	}
	if _, err := parsePattern(d.Characterization.Pattern); err != nil {
		return err
	}
	if len(d.Banks) == 0 {
		return fmt.Errorf("drange: profile delta %d names no banks", seq)
	}
	geom := p.Geometry
	affected := make(map[int]bool, len(d.Banks))
	for i, b := range d.Banks {
		if b < 0 || b >= geom.Banks {
			return fmt.Errorf("drange: profile delta %d bank %d outside device geometry", seq, b)
		}
		if i > 0 && b <= d.Banks[i-1] {
			return fmt.Errorf("drange: profile delta %d bank list is not strictly ascending", seq)
		}
		affected[b] = true
	}
	for _, cell := range d.Cells {
		if !affected[cell.Bank] {
			return fmt.Errorf("drange: profile delta %d cell in bank %d, which the delta does not name", seq, cell.Bank)
		}
		if cell.Row < 0 || cell.Row >= geom.RowsPerBank ||
			cell.Col < 0 || cell.Col >= geom.ColsPerRow {
			return fmt.Errorf("drange: profile delta %d cell (bank %d, row %d, col %d) outside device geometry", seq, cell.Bank, cell.Row, cell.Col)
		}
		if cell.Word != cell.Col/geom.WordBits {
			return fmt.Errorf("drange: profile delta %d cell (bank %d, row %d, col %d) has inconsistent word index %d", seq, cell.Bank, cell.Row, cell.Col, cell.Word)
		}
	}
	for _, s := range d.Selections {
		if !affected[s.Bank] {
			return fmt.Errorf("drange: profile delta %d selection for bank %d, which the delta does not name", seq, s.Bank)
		}
		if s.Word1.Row == s.Word2.Row {
			return fmt.Errorf("drange: profile delta %d bank %d selection uses a single row %d; Algorithm 2 requires distinct rows", seq, s.Bank, s.Word1.Row)
		}
		if s.Bits() == 0 {
			return fmt.Errorf("drange: profile delta %d bank %d selection has no RNG cells", seq, s.Bank)
		}
	}
	return nil
}

// AppendDelta returns a new sealed profile carrying d at the end of p's
// delta chain. p itself is not modified — sealed profiles stay immutable, so
// readers holding the old profile keep a consistent view. The delta must be
// sealed and must name p's current checksum as its base.
func (p *Profile) AppendDelta(d *ProfileDelta) (*Profile, error) {
	if d == nil {
		return nil, fmt.Errorf("drange: nil profile delta")
	}
	if err := d.validateAgainst(p, len(p.Deltas)+1, p.Checksum); err != nil {
		return nil, err
	}
	next := *p
	next.Deltas = make([]*ProfileDelta, 0, len(p.Deltas)+1)
	next.Deltas = append(next.Deltas, p.Deltas...)
	next.Deltas = append(next.Deltas, d)
	if err := next.Seal(); err != nil {
		return nil, err
	}
	if err := next.Validate(); err != nil {
		return nil, err
	}
	return &next, nil
}

// EffectiveCells resolves the delta chain into the profile's current RNG
// cells: each delta replaces the cells of the banks it names.
func (p *Profile) EffectiveCells() []Cell {
	cells := p.Cells
	for _, d := range p.Deltas {
		affected := make(map[int]bool, len(d.Banks))
		for _, b := range d.Banks {
			affected[b] = true
		}
		next := make([]Cell, 0, len(cells)+len(d.Cells))
		for _, c := range cells {
			if !affected[c.Bank] {
				next = append(next, c)
			}
		}
		cells = append(next, d.Cells...)
	}
	return cells
}

// EffectiveSelections resolves the delta chain into the profile's current
// per-bank word selections: each delta replaces the selections of the banks
// it names (a named bank without a new selection drops out of generation).
func (p *Profile) EffectiveSelections() []Selection {
	sels := p.Selections
	for _, d := range p.Deltas {
		affected := make(map[int]bool, len(d.Banks))
		for _, b := range d.Banks {
			affected[b] = true
		}
		next := make([]Selection, 0, len(sels)+len(d.Selections))
		for _, s := range sels {
			if !affected[s.Bank] {
				next = append(next, s)
			}
		}
		sels = append(next, d.Selections...)
	}
	return sels
}

// computeChecksum digests the profile's canonical JSON with Checksum blank.
func (p *Profile) computeChecksum() (string, error) {
	shadow := *p
	shadow.Checksum = ""
	data, err := json.Marshal(&shadow)
	if err != nil {
		return "", fmt.Errorf("drange: computing profile checksum: %w", err)
	}
	sum := sha256.Sum256(data)
	return checksumPrefix + hex.EncodeToString(sum[:]), nil
}

// Seal recomputes the integrity checksum after a mutation. Profiles returned
// by Characterize and DecodeProfile are already sealed.
func (p *Profile) Seal() error {
	sum, err := p.computeChecksum()
	if err != nil {
		return err
	}
	p.Checksum = sum
	return nil
}

// Validate checks the profile's version, integrity checksum and internal
// consistency (device identity, geometry bounds, selection structure).
func (p *Profile) Validate() error {
	if p.Version <= 0 {
		return fmt.Errorf("drange: profile has no version")
	}
	if p.Version > ProfileVersion {
		return fmt.Errorf("drange: profile version %d is newer than the supported version %d; upgrade this package to read it", p.Version, ProfileVersion)
	}
	sum, err := p.computeChecksum()
	if err != nil {
		return err
	}
	if p.Checksum == "" {
		return fmt.Errorf("drange: profile has no integrity checksum; call Seal after mutating a profile")
	}
	if p.Checksum != sum {
		return fmt.Errorf("drange: profile integrity check failed (checksum mismatch); the profile was corrupted or edited without Seal")
	}
	if _, err := dram.ProfileFor(dram.Manufacturer(p.Manufacturer)); err != nil {
		return fmt.Errorf("drange: %w", err)
	}
	geom := p.Geometry
	if err := geom.Validate(); err != nil {
		return fmt.Errorf("drange: profile geometry: %w", err)
	}
	c := p.Characterization
	if c.TRCDNS <= 0 {
		return fmt.Errorf("drange: profile tRCD %v ns must be positive", c.TRCDNS)
	}
	if _, err := parsePattern(c.Pattern); err != nil {
		return err
	}
	if len(p.Cells) == 0 {
		return fmt.Errorf("drange: profile contains no RNG cells")
	}
	for _, cell := range p.Cells {
		if cell.Bank < 0 || cell.Bank >= geom.Banks ||
			cell.Row < 0 || cell.Row >= geom.RowsPerBank ||
			cell.Col < 0 || cell.Col >= geom.ColsPerRow {
			return fmt.Errorf("drange: profile cell (bank %d, row %d, col %d) outside device geometry", cell.Bank, cell.Row, cell.Col)
		}
		if cell.Word != cell.Col/geom.WordBits {
			return fmt.Errorf("drange: profile cell (bank %d, row %d, col %d) has inconsistent word index %d", cell.Bank, cell.Row, cell.Col, cell.Word)
		}
	}
	if len(p.Selections) == 0 {
		return fmt.Errorf("drange: profile contains no bank selections")
	}
	for _, s := range p.Selections {
		if s.Bank < 0 || s.Bank >= geom.Banks {
			return fmt.Errorf("drange: selection bank %d outside device geometry", s.Bank)
		}
		if s.Word1.Row == s.Word2.Row {
			return fmt.Errorf("drange: bank %d selection uses a single row %d; Algorithm 2 requires distinct rows", s.Bank, s.Word1.Row)
		}
		if s.Bits() == 0 {
			return fmt.Errorf("drange: bank %d selection has no RNG cells", s.Bank)
		}
	}
	// Walk the delta chain: every delta must be internally sound and must
	// name the checksum of exactly the profile state before it — the base
	// profile plus all earlier deltas — so chains cannot be reordered,
	// truncated in the middle, or replayed across profiles.
	shadow := *p
	for i, d := range p.Deltas {
		if d == nil {
			return fmt.Errorf("drange: profile delta %d is null", i+1)
		}
		shadow.Deltas = p.Deltas[:i]
		base, err := shadow.computeChecksum()
		if err != nil {
			return err
		}
		if err := d.validateAgainst(p, i+1, base); err != nil {
			return err
		}
	}
	if len(p.EffectiveSelections()) == 0 {
		return fmt.Errorf("drange: profile's delta chain leaves no bank selections")
	}
	if _, err := coreSelections(p.EffectiveCells(), p.EffectiveSelections()); err != nil {
		return err
	}
	return nil
}

// Encode marshals the profile to indented JSON, sealing it first.
func (p *Profile) Encode() ([]byte, error) {
	if err := p.Seal(); err != nil {
		return nil, err
	}
	data, err := json.MarshalIndent(p, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("drange: encoding profile: %w", err)
	}
	return append(data, '\n'), nil
}

// Save writes the profile as JSON to w.
func (p *Profile) Save(w io.Writer) error {
	data, err := p.Encode()
	if err != nil {
		return err
	}
	if _, err := w.Write(data); err != nil {
		return fmt.Errorf("drange: writing profile: %w", err)
	}
	return nil
}

// DecodeProfile parses and validates a JSON-encoded profile. It rejects
// truncated or corrupted data (checksum mismatch) and profiles written by a
// newer format version.
func DecodeProfile(data []byte) (*Profile, error) {
	var p Profile
	if err := json.Unmarshal(data, &p); err != nil {
		return nil, fmt.Errorf("drange: decoding profile: %w", err)
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return &p, nil
}

// LoadProfile reads and validates a JSON-encoded profile from r.
func LoadProfile(r io.Reader) (*Profile, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("drange: reading profile: %w", err)
	}
	return DecodeProfile(data)
}

// Banks returns the number of banks the profile currently selects for
// generation, after resolving the delta chain.
func (p *Profile) Banks() int { return len(p.EffectiveSelections()) }

// BitsPerIteration returns the number of random bits one pass of the
// Algorithm 2 core loop harvests across all currently selected banks, after
// resolving the delta chain.
func (p *Profile) BitsPerIteration() int {
	n := 0
	for _, s := range p.EffectiveSelections() {
		n += s.Bits()
	}
	return n
}

// DensityHistograms returns the Figure 7 data for the characterized device:
// the number of DRAM words containing x RNG cells, per bank.
func (p *Profile) DensityHistograms() []Density {
	cells := make([]core.RNGCell, 0, len(p.Cells))
	for _, c := range p.Cells {
		cells = append(cells, c.core())
	}
	hists := core.RNGCellDensity(cells)
	out := make([]Density, 0, len(hists))
	for _, h := range hists {
		counts := make(map[int]int, len(h.WordsWithNCells))
		for n, c := range h.WordsWithNCells {
			counts[n] = c
		}
		out = append(out, Density{
			Bank:            h.Bank,
			WordsWithNCells: counts,
			MaxCellsPerWord: h.MaxCellsPerWord,
			TotalRNGCells:   h.TotalRNGCells,
		})
	}
	return out
}

// patternByName maps every canonical pattern name to its definition.
var patternByName = func() map[string]pattern.Pattern {
	m := make(map[string]pattern.Pattern)
	for _, p := range pattern.All() {
		m[p.String()] = p
	}
	return m
}()

func parsePattern(name string) (pattern.Pattern, error) {
	p, ok := patternByName[name]
	if !ok {
		return pattern.Pattern{}, fmt.Errorf("drange: profile references unknown data pattern %q", name)
	}
	return p, nil
}
