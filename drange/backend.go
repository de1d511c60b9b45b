package drange

import (
	"fmt"
	"io"
	"sort"
	"sync"

	"repro/internal/device"
	"repro/internal/dram"
)

// Device is the device contract: everything a D-RaNGe pipeline needs from a
// DRAM device. Open, Characterize and OpenPool drive whatever implements it —
// the built-in simulator, an operation-log replayer, a fault injector, or a
// caller-supplied backend registered with RegisterBackend (or passed directly
// via WithDevice) — as it is, with no adapter in between.
//
// In the order a generator exercises them: Serial (profiles are keyed on it)
// and Geometry; the row commands Activate(bank, row, trcdNS), Precharge and
// Refresh, where an activation below a cell's critical latency must arm
// activation-failure injection for the first word read from the row; the
// column commands ReadWord and WriteWord; the profiling shortcuts WriteRow,
// ReadRowRaw and StartupRow; SetTemperature/Temperature in °C (failure
// probabilities are temperature-dependent, Section 5.3, so pool health
// monitoring watches for drift); and the OpStats counters. Two capabilities
// are optional: Timing() replaces the default LPDDR4 command schedule, and
// ReadWordInto(bank, wordIdx, dst) is an allocation-free ReadWord. The
// simulator implements both.
//
// Implementations must be safe for concurrent use by multiple goroutines:
// sharded engines drive disjoint banks concurrently. A backend that also
// implements io.Closer is closed when the Source (or Pool) opened over it is
// closed.
type Device = device.Device

// DeviceStats counts the operations a device has performed. Backends that
// cannot observe a counter (for example InjectedFlips on replayed logs)
// report it as zero.
type DeviceStats = dram.DeviceStats

// BackendParams describes the device identity a backend factory must open.
// The identity fields come from the profile (or the Characterize options);
// Options carries backend-specific knobs from WithBackend.
type BackendParams struct {
	// Manufacturer, Serial and Deterministic are the device identity used by
	// the sim backend and recorded by the replay backend.
	Manufacturer  string
	Serial        uint64
	Deterministic bool
	// Geometry is the requested device organisation; the zero value selects
	// the backend's default.
	Geometry Geometry
	// Options are backend-specific settings (see the sim, replay and faulty
	// backend documentation for their keys).
	Options map[string]string
}

// option returns Options[key] or def when unset.
func (p BackendParams) option(key, def string) string {
	if v, ok := p.Options[key]; ok {
		return v
	}
	return def
}

// BackendFactory opens a Device for the given parameters. Factories must
// validate p.Options and reject unknown keys loudly.
type BackendFactory func(p BackendParams) (Device, error)

var (
	backendMu sync.RWMutex
	backends  = map[string]BackendFactory{}
)

// RegisterBackend registers a device backend under name, making it available
// to WithBackend and OpenBackend. Registering a duplicate or empty name is an
// error. The built-in backends are "sim" (the simulated device), "replay"
// (operation-log record/replay) and "faulty" (fault injection over another
// backend).
func RegisterBackend(name string, factory BackendFactory) error {
	if name == "" {
		return fmt.Errorf("drange: backend name must be non-empty")
	}
	if factory == nil {
		return fmt.Errorf("drange: nil factory for backend %q", name)
	}
	backendMu.Lock()
	defer backendMu.Unlock()
	if _, dup := backends[name]; dup {
		return fmt.Errorf("drange: backend %q already registered", name)
	}
	backends[name] = factory
	return nil
}

// Backends returns the registered backend names, sorted.
func Backends() []string {
	backendMu.RLock()
	defer backendMu.RUnlock()
	names := make([]string, 0, len(backends))
	for n := range backends {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// OpenBackend opens a device through the named registered backend. Most
// callers never need it — Characterize/Open/OpenPool resolve backends from
// WithBackend — but it is the composition point for custom middleware: open a
// built-in backend, wrap it, and pass the wrapper to WithDevice.
func OpenBackend(name string, p BackendParams) (Device, error) {
	backendMu.RLock()
	factory, ok := backends[name]
	backendMu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("drange: unknown backend %q (registered: %v)", name, Backends())
	}
	dev, err := factory(p)
	if err != nil {
		return nil, fmt.Errorf("drange: backend %q: %w", name, err)
	}
	if dev == nil {
		return nil, fmt.Errorf("drange: backend %q returned a nil device", name)
	}
	return dev, nil
}

func init() {
	must := func(err error) {
		if err != nil {
			panic(err)
		}
	}
	must(RegisterBackend("sim", openSimBackend))
	must(RegisterBackend("replay", openReplayBackend))
	must(RegisterBackend("faulty", openFaultyBackend))
}

// openSimBackend is the "sim" backend: the repository's simulated DRAM
// device. It takes no Options; the identity fields select the manufacturer
// profile, the serial-seeded process variation, the geometry, and (when
// Deterministic) a per-bank seeded noise source.
func openSimBackend(p BackendParams) (Device, error) {
	for k := range p.Options {
		return nil, fmt.Errorf("sim backend takes no options, got %q", k)
	}
	d, err := newDevice(p.Manufacturer, p.Serial, p.Deterministic, p.Geometry)
	if err != nil {
		return nil, err
	}
	return d, nil
}

// closeDevice closes a backend device if it holds resources (the replay
// recorder's log file, a faulty wrapper's inner recorder, ...).
func closeDevice(dev Device) error {
	if c, ok := dev.(io.Closer); ok {
		return c.Close()
	}
	return nil
}
