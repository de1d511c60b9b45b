package drange

import (
	"context"
	"fmt"
)

// HealthPolicy controls a pool's per-device health tracking. D-RaNGe's
// output quality rests on RNG cells staying unbiased at the characterized
// operating point; the paper's temperature study (Section 5.3) shows failure
// probabilities drift as the device leaves that point. A pool therefore
// monitors each device's harvested bitstream for bias drift and its reported
// temperature for drift away from the open-time baseline, and evicts devices
// that cross the limits so one bad chip cannot poison the aggregate stream.
type HealthPolicy struct {
	// WindowBits is the number of freshly harvested bits per device over
	// which bias is measured; at each full window the ones-fraction is
	// compared against one half. 0 selects 4096 (the binomial standard
	// deviation of the ones-fraction at 4096 bits is ~0.008, so the default
	// MaxBiasDelta of 0.1 sits ~13 sigma out — unreachable by healthy noise).
	// Negative values are rejected: OpenPool fails.
	WindowBits int
	// MaxBiasDelta is the eviction threshold for |ones-fraction − 0.5| over
	// a window. 0 selects 0.1; negative disables bias eviction. Unlike the
	// functional options, this config struct keeps zero-means-default
	// semantics so partial policies stay ergonomic; a strict
	// evict-on-any-measured-bias policy is any positive value below the
	// window's resolution (e.g. 0.5/WindowBits).
	MaxBiasDelta float64
	// MaxTempDriftC is the eviction threshold for the absolute temperature
	// drift (°C) from the device's open-time baseline, checked at every
	// window boundary. 0 selects 10; negative disables temperature eviction.
	MaxTempDriftC float64
	// Disabled turns all health tracking off.
	Disabled bool
}

func (p HealthPolicy) withDefaults() HealthPolicy {
	if p.WindowBits == 0 {
		p.WindowBits = 4096
	}
	// The window accumulator packs (ones, bits) into one 64-bit atomic with
	// 32 bits each; clamp absurd windows so the packing cannot overflow.
	if p.WindowBits > 1<<30 {
		p.WindowBits = 1 << 30
	}
	if p.MaxBiasDelta == 0 {
		p.MaxBiasDelta = 0.1
	}
	if p.MaxTempDriftC == 0 {
		p.MaxTempDriftC = 10
	}
	return p
}

// Pool is the multi-device Source returned by OpenPool. It multiplexes N
// devices — each with its own profile, backend and sharded harvesting engine
// — behind the ordinary Source interface, scheduling 64-bit word fetches to
// the least-loaded healthy device, tracking per-device health (bias and
// temperature drift per HealthPolicy) and evicting unhealthy devices without
// failing readers as long as one healthy device remains.
//
// The embedded servingCore opens the members and implements Read, ReadBits,
// ReadRaw, Uint64, Stats and Close — the same implementations a Generator (a
// 1-member core) is built and served through.
type Pool struct {
	servingCore
}

// OpenPool opens one device per profile and multiplexes them behind a single
// Source. Each device runs its own sharded harvesting engine (WithShards
// selects the shards per device; default 1), so the pool's aggregate
// simulated throughput is the sum of the member rates — the fleet-scale
// counterpart of the paper's multi-channel scaling.
//
// Devices open through the default backend (WithBackend, else "sim"),
// overridable per profile index with WithDeviceBackend. Device health is
// tracked per HealthPolicy (WithHealth): a device whose harvested bitstream
// drifts from 50/50 or whose temperature drifts from its open-time baseline
// is evicted — its engine stops, its remaining bits are discarded, and reads
// continue seamlessly from the surviving devices. The last healthy device is
// never evicted (degraded output beats no output; the breakdown in Stats
// reports the violation instead). Stats carries a per-device breakdown in
// Stats.Devices.
//
// OpenPool itself only checks the options peculiar to a pool (WithDevice is
// rejected, WithDeviceBackend indices must name a profile); every member is
// built exactly as Open builds its single one. ctx cancellation stops every
// member engine. Close releases all members.
func OpenPool(ctx context.Context, profiles []*Profile, opts ...Option) (*Pool, error) {
	if len(profiles) == 0 {
		return nil, fmt.Errorf("drange: OpenPool needs at least one profile")
	}
	o := buildOptions(opts)
	if o.device != nil {
		return nil, fmt.Errorf("drange: WithDevice does not apply to OpenPool (it opens one device per profile); use WithDeviceBackend or open single Sources")
	}
	for i := range o.deviceBackends {
		if i < 0 || i >= len(profiles) {
			return nil, fmt.Errorf("drange: WithDeviceBackend index %d outside the %d profiles", i, len(profiles))
		}
	}
	p := &Pool{}
	if err := p.open(ctx, profiles, o); err != nil {
		return nil, err
	}
	return p, nil
}

// Devices returns the number of devices the pool opened (evicted included).
func (p *Pool) Devices() int { return len(p.members) }

var _ Source = (*Pool)(nil)
