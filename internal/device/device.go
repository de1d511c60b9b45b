// Package device defines the device contract the D-RaNGe stack is written
// against. Every layer that drives DRAM — the memory-controller model
// (internal/memctrl), the harvesting core and sharded engine (internal/core),
// the characterization profiler (internal/profiler) and the prior-work
// baselines (internal/baselines) — accepts this interface instead of the
// concrete simulated *dram.Device, so alternative backends (operation
// record/replay, fault injection, and eventually real-hardware shims) can be
// swapped in without touching the pipeline.
//
// It is the only device contract in the module: the public facade exports it
// unchanged as the type alias drange.Device, so registered backends implement
// this interface directly.
package device

import (
	"repro/internal/dram"
	"repro/internal/timing"
)

// Device is the minimal DRAM-device contract the pipeline needs: geometry
// discovery, row activation at a caller-chosen (possibly reduced) tRCD with
// precharge/refresh, DRAM-word column accesses, the whole-row profiling
// conveniences, temperature, and operation statistics. Timing discovery is
// the optional Timed capability.
//
// Implementations must be safe for concurrent use by multiple goroutines: the
// paper exploits bank-level parallelism, and the sharded engine drives
// different banks from different goroutines.
type Device interface {
	// Serial identifies the device instance. Profiles are keyed on it: RNG
	// cell locations are per-device process variation, so a profile must only
	// ever be opened against the device it was characterized on.
	Serial() uint64
	// Geometry describes the addressable organisation of the device.
	Geometry() dram.Geometry

	// Activate opens row in bank with the given activation latency in
	// nanoseconds. Activating below the cell-dependent critical latency arms
	// activation-failure injection for the first word read from the row.
	// Activating an already-open bank is an error.
	Activate(bank, row int, trcdNS float64) error
	// Precharge closes the open row of bank (no-op when already closed).
	Precharge(bank int) error
	// Refresh performs an all-bank refresh; every bank must be precharged.
	Refresh() error
	// ReadWord reads DRAM word wordIdx from the row open in bank. The first
	// word read after a reduced-tRCD activation carries activation failures.
	ReadWord(bank, wordIdx int) ([]uint64, error)
	// WriteWord writes DRAM word wordIdx of the row open in bank.
	WriteWord(bank, wordIdx int, word []uint64) error

	// WriteRow writes the full content of (bank, row) directly, bypassing the
	// command interface — the profiling shortcut for installing data patterns.
	WriteRow(bank, row int, data []uint64) error
	// ReadRowRaw returns the stored content of (bank, row) without opening
	// the row and without failure injection.
	ReadRowRaw(bank, row int) ([]uint64, error)
	// StartupRow returns the power-up content of (bank, row), used by the
	// startup-value TRNG baselines. It must not disturb device state.
	StartupRow(bank, row int) ([]uint64, error)

	// SetTemperature sets the DRAM temperature in degrees Celsius;
	// Temperature reports it. Failure probabilities are
	// temperature-dependent (Section 5.3 of the paper), which is why pool
	// health monitoring watches this value for drift.
	SetTemperature(c float64) error
	Temperature() float64

	// OpStats returns a snapshot of the device's operation counters.
	OpStats() dram.DeviceStats
}

// The simulated device is the reference implementation of the contract.
var _ Device = (*dram.Device)(nil)

// Timed is an optional device capability: the device's JEDEC timing
// parameter set, which controllers schedule commands and convert cycles to
// wall time with. The simulator implements it; a backend that does not is
// scheduled as the default LPDDR4 part (see TimingOf).
type Timed interface {
	Timing() timing.Params
}

var _ Timed = (*dram.Device)(nil)

// TimingOf returns d's timing parameters when d implements Timed, and the
// default LPDDR4 set otherwise.
func TimingOf(d Device) timing.Params {
	if t, ok := d.(Timed); ok {
		return t.Timing()
	}
	return timing.NewLPDDR4()
}

// WordReaderInto is an optional device capability: an allocation-free
// ReadWord variant writing into a caller-owned buffer. The memory controller
// uses it when present (the simulator implements it); wrapping backends that
// do not are served through ReadWord with a copy.
type WordReaderInto interface {
	// ReadWordInto reads DRAM word wordIdx from the row open in bank into
	// dst, which must hold Geometry().WordBits/64 uint64s. Failure-injection
	// semantics match ReadWord exactly.
	ReadWordInto(bank, wordIdx int, dst []uint64) error
}

var _ WordReaderInto = (*dram.Device)(nil)
