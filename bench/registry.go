package main

import (
	"sync"

	"repro/drange"
)

// countingBackend is the backend name the benchmark opens serving devices
// through. It opens the built-in "sim" backend and hands back the very same
// Device, unwrapped, so the serving path is unchanged; it only remembers the
// device so its operation counters (Device.OpStats) can be read per phase.
const countingBackend = "bench-sim"

var devices = &deviceRegistry{}

func init() {
	if err := drange.RegisterBackend(countingBackend, func(p drange.BackendParams) (drange.Device, error) {
		dev, err := drange.OpenBackend("sim", p)
		if err == nil {
			devices.add(dev)
		}
		return dev, err
	}); err != nil {
		panic(err)
	}
}

// deviceRegistry sums the operation counters of the devices opened through
// countingBackend since the last mark.
type deviceRegistry struct {
	mu      sync.Mutex
	live    []drange.Device
	base    map[drange.Device]drange.DeviceStats
	retired drange.DeviceStats
}

func (r *deviceRegistry) add(d drange.Device) {
	r.mu.Lock()
	r.live = append(r.live, d)
	r.mu.Unlock()
}

// mark starts a new counting phase.
func (r *deviceRegistry) mark() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.base = make(map[drange.Device]drange.DeviceStats, len(r.live))
	for _, d := range r.live {
		r.base[d] = d.OpStats()
	}
	r.retired = drange.DeviceStats{}
}

// retire folds the counters of every device opened so far into the phase
// total and forgets the devices; callers use it once those devices are
// closed, so open/close loops do not keep every device alive.
func (r *deviceRegistry) retire() {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, d := range r.live {
		addStats(&r.retired, d.OpStats(), r.base[d])
	}
	r.live, r.base = nil, nil
}

// since returns the counters accumulated since mark.
func (r *deviceRegistry) since() drange.DeviceStats {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := r.retired
	for _, d := range r.live {
		addStats(&out, d.OpStats(), r.base[d])
	}
	return out
}

func addStats(dst *drange.DeviceStats, now, base drange.DeviceStats) {
	dst.Activates += now.Activates - base.Activates
	dst.Reads += now.Reads - base.Reads
	dst.InjectedFlips += now.InjectedFlips - base.InjectedFlips
}
