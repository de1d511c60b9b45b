package main

import (
	"context"

	"repro/drange"
)

// benchGeometry is the reduced device every workload simulates: all of the
// model's structure (banks, subarrays, 256-bit words) at a size one
// characterization pass covers in seconds.
var benchGeometry = drange.Geometry{Banks: 8, RowsPerBank: 256, ColsPerRow: 4096, SubarrayRows: 128, WordBits: 256}

const (
	// charSamples and charScreenIterations shorten identification (the
	// defaults are 600 and 50) so a run can repeat it.
	charSamples          = 300
	charScreenIterations = 25
	// readSize is every client request's size.
	readSize = 1024
	// setupReps is how many times a run sets up; setup_s is the median.
	setupReps = 3
	// opensPerSetup is how many times each set-up opens its source (all
	// but the last are closed again), so open_ms has a median to report.
	opensPerSetup = 10
)

// region is the per-bank profiling region: rows x words over banks.
type region struct{ rows, words, banks int }

// device is one simulated device a workload characterizes.
type device struct {
	manufacturer string
	serial       uint64
}

// clientKind is one closed-loop client's request.
type clientKind int

const (
	// readRaw issues ReadRaw(readSize): the raw physical tier.
	readRaw clientKind = iota
	// read issues Read(readSize): the DRBG tier when the source has one,
	// else the raw tier.
	read
	// openCycle opens the next profile, reads readSize raw bytes and closes
	// the source: the open-to-first-bytes path.
	openCycle
)

// workload is one benchmark input: a device set, how the served source is
// opened, and the closed-loop clients that drive it.
type workload struct {
	name string
	why  string
	// devices derives the device set from the run's serial base.
	devices func(base uint64) []device
	region  region
	// shards is the per-device shard count of the served source (0: the
	// sequential sampler); the layer replays use the same shape.
	shards  int
	drbg    bool
	clients []clientKind
	// open opens the served source over the freshly characterized
	// profiles (nil source for workloads whose clients open their own).
	open func(ctx context.Context, ps []*drange.Profile, ops *ledger, opens *[]float64) (drange.Source, error)
}

var workloads = []*workload{
	{
		name: "characterize",
		why: "Characterize A, B and C devices, then Open, read 1 KiB and Close in a loop: loads identification (pattern, profiler, " +
			"core) run under every fresh Open; bypasses health, drbg and the serving core.",
		devices: func(b uint64) []device { return []device{{"A", b}, {"B", b + 1}, {"C", b + 2}} },
		region:  region{48, 8, 8},
		clients: []clientKind{openCycle},
		open: func(ctx context.Context, ps []*drange.Profile, ops *ledger, opens *[]float64) (drange.Source, error) {
			for _, p := range ps {
				src, err := timedOpen(opens, ops, func() (drange.Source, error) {
					return drange.Open(ctx, p, drange.WithBackend(countingBackend, nil))
				})
				if err != nil {
					return nil, err
				}
				if err := ops.record(src.Close()); err != nil {
					return nil, err
				}
			}
			devices.retire()
			return nil, nil
		},
	},
	{
		name: "drbg-mixed",
		why: "A DRBG-tier reader beside a ReadRaw reader on one 4-shard source: both tiers share the serving core, so a " +
			"gain for one can cost the other; loads drbg, health and reseed harvests.",
		devices: func(b uint64) []device { return []device{{"A", b}} },
		region:  region{48, 8, 8},
		shards:  4,
		drbg:    true,
		clients: []clientKind{read, readRaw},
		open: func(ctx context.Context, ps []*drange.Profile, ops *ledger, opens *[]float64) (drange.Source, error) {
			return timedOpen(opens, ops, func() (drange.Source, error) {
				return drange.Open(ctx, ps[0], drange.WithShards(4), drange.WithDRBG(drange.DRBGPolicy{}),
					drange.WithBackend(countingBackend, nil))
			})
		},
	},
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// characterizeOptions are the Characterize options for one device.
func characterizeOptions(d device, r region) []drange.Option {
	return []drange.Option{
		drange.WithManufacturer(d.manufacturer),
		drange.WithSerial(d.serial),
		drange.WithDeterministic(true),
		drange.WithGeometry(benchGeometry),
		drange.WithProfilingRegion(r.rows, r.words, r.banks),
		drange.WithSamples(charSamples),
		drange.WithScreenIterations(charScreenIterations),
	}
}
