package drange

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"
)

// tripOutcome is what a health trip leaves behind, compared between the
// lock-free and the locked serving paths.
type tripOutcome struct {
	failed    int    // reads that failed
	errTest   string // HealthError.Test of the first failure
	errDevice int    // HealthError.Device of the first failure
	healthy   int
	blocked   []int64 // BlockedWindows per member
	delivered []bool  // whether each member delivered any bits
	evicted   []bool
	reason    []string // Reason per member, up to its first ':'
}

// runTrips opens a fresh source with open, serves eight reads and records
// the outcome. fast reads through ReadRaw, which takes the lock-free path on
// an engine-backed core; otherwise ReadBits serves the same bit count on the
// locked path.
func runTrips(t *testing.T, open func(t *testing.T) Source, fast bool) tripOutcome {
	t.Helper()
	src := open(t)
	const reads, readBytes = 8, 512
	var out tripOutcome
	for i := 0; i < reads; i++ {
		var err error
		if fast {
			buf := make([]byte, readBytes)
			_, err = src.ReadRaw(buf)
		} else {
			_, err = src.ReadBits(readBytes * 8)
		}
		if err == nil {
			continue
		}
		var herr *HealthError
		if !errors.As(err, &herr) {
			t.Fatalf("read %d failed with %v, want a *HealthError", i, err)
		}
		if out.failed == 0 {
			out.errTest, out.errDevice = herr.Test, herr.Device
		}
		out.failed++
	}
	st := src.Stats()
	if len(st.Devices) == 0 {
		out.healthy = 1
		out.blocked = []int64{st.Health.BlockedWindows}
		out.delivered = []bool{st.BitsDelivered > 0}
		return out
	}
	for _, d := range st.Devices {
		if d.Healthy {
			out.healthy++
		}
		out.blocked = append(out.blocked, d.Health.BlockedWindows)
		out.delivered = append(out.delivered, d.BitsDelivered > 0)
		out.evicted = append(out.evicted, d.Evicted)
		reason, _, _ := strings.Cut(d.Reason, ":")
		out.reason = append(out.reason, reason)
	}
	return out
}

// TestFastPathTripsMatchLockedPath: a health trip met on the lock-free
// ReadRaw path gives the same errors and outcomes as the same trip met on the
// locked path — on a sharded Source and on pools with a stuck member, under
// every trip action.
func TestFastPathTripsMatchLockedPath(t *testing.T) {
	source := func(action HealthAction) func(t *testing.T) Source {
		return func(t *testing.T) Source {
			src, err := Open(context.Background(), quickProfile(t), WithShards(2),
				WithBackend("faulty", stuckBackendOpts()),
				WithHealthTests(noStartup(HealthTestPolicy{OnFailure: action, MaxBlockedWindows: 4})))
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { src.Close() })
			return src
		}
	}
	// pool opens n members, the last of them stuck.
	pool := func(n int, action HealthAction) func(t *testing.T) Source {
		return func(t *testing.T) Source {
			p, err := OpenPool(context.Background(), poolProfiles(t, n),
				WithDeviceBackend(n-1, "faulty", stuckBackendOpts()),
				WithHealthTests(noStartup(HealthTestPolicy{OnFailure: action, MaxBlockedWindows: 4})))
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { p.Close() })
			return p
		}
	}
	cases := []struct {
		name string
		open func(t *testing.T) Source
		want func(t *testing.T, o tripOutcome)
	}{
		{"source/error", source(HealthActionError), func(t *testing.T, o tripOutcome) {
			if o.failed != 8 || (o.errTest != "rct" && o.errTest != "apt") || o.errDevice != -1 || o.delivered[0] {
				t.Errorf("outcome %+v, want every read to fail with an rct/apt trip on device -1", o)
			}
		}},
		{"source/block", source(HealthActionBlock), func(t *testing.T, o tripOutcome) {
			if o.failed != 8 || o.errTest != "blocked" || o.blocked[0] != 8*4 || o.delivered[0] {
				t.Errorf("outcome %+v, want every read blocked after 4 discarded batches", o)
			}
		}},
		{"pool/error", pool(2, HealthActionError), func(t *testing.T, o tripOutcome) {
			if o.failed == 0 || o.errDevice != 1 || o.healthy != 2 {
				t.Errorf("outcome %+v, want trips reported on device 1", o)
			}
		}},
		{"pool/block", pool(2, HealthActionBlock), func(t *testing.T, o tripOutcome) {
			if o.failed != 0 || o.healthy != 2 || o.blocked[0] != 0 || o.blocked[1] == 0 || o.delivered[1] {
				t.Errorf("outcome %+v, want device 1 blocked and benched while device 0 serves", o)
			}
		}},
		{"pool/evict", pool(2, HealthActionEvict), func(t *testing.T, o tripOutcome) {
			if o.failed != 0 || o.healthy != 1 || !o.evicted[1] || o.reason[1] != "health test rct tripped" || o.delivered[1] {
				t.Errorf("outcome %+v, want device 1 evicted by its first trip", o)
			}
		}},
		{"pool/evict-last", pool(1, HealthActionEvict), func(t *testing.T, o tripOutcome) {
			if o.failed != 0 || o.healthy != 1 || o.evicted[0] || o.reason[0] != "unhealthy but retained (last device)" {
				t.Errorf("outcome %+v, want the last member retained and serving", o)
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			fast := runTrips(t, tc.open, true)
			locked := runTrips(t, tc.open, false)
			tc.want(t, fast)
			tc.want(t, locked)
			if fast.failed != locked.failed || fast.errTest != locked.errTest || fast.errDevice != locked.errDevice ||
				fast.healthy != locked.healthy || strings.Join(fast.reason, "|") != strings.Join(locked.reason, "|") {
				t.Errorf("fast path outcome %+v differs from the locked path's %+v", fast, locked)
			}
		})
	}
}

// TestMonitoredFastPathTestsEveryDeliveredBit: on a health-tested sharded
// Source without a DRBG, raw reads of any length — concurrent lock-free
// reads and locked bit-granular reads alike — hand out exactly the bits the
// monitor ingested, no more and no fewer.
func TestMonitoredFastPathTestsEveryDeliveredBit(t *testing.T) {
	src := openQuick(t, WithShards(2), WithHealthTests(HealthTestPolicy{}))
	var wg sync.WaitGroup
	for _, n := range []int{1, 13, 64, 1000} {
		wg.Add(1)
		go func(n int) {
			defer wg.Done()
			buf := make([]byte, n)
			for i := 0; i < 4; i++ {
				if _, err := src.ReadRaw(buf); err != nil {
					t.Error(err)
					return
				}
			}
		}(n)
	}
	wg.Wait()
	// A 5-bit read leaves 59 bits buffered; the 59-bit read drains them.
	for _, n := range []int{5, 59} {
		if _, err := src.ReadBits(n); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := src.ReadRaw(make([]byte, 77)); err != nil {
		t.Fatal(err)
	}
	st := src.Stats()
	want := int64(4*(1+13+64+1000)+77)*8 + 64
	if st.BitsDelivered != want || st.Health.BitsTested != want {
		t.Errorf("BitsDelivered = %d, BitsTested = %d, want both %d", st.BitsDelivered, st.Health.BitsTested, want)
	}
}

// TestMonitoredReadRawNoAlloc: screening raw reads through the health
// monitor keeps the lock-free path allocation-free.
func TestMonitoredReadRawNoAlloc(t *testing.T) {
	src := openQuick(t, WithShards(2), WithHealthTests(HealthTestPolicy{}))
	buf := make([]byte, 1024)
	if _, err := src.ReadRaw(buf); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(16, func() {
		if _, err := src.ReadRaw(buf); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("monitored ReadRaw allocates %.1f times per call, want 0", allocs)
	}
}

// gatedDevice is a sim device whose word reads wait while its gate is shut,
// so a test can hold a raw harvest in flight for as long as it likes.
type gatedDevice struct {
	Device
	shut   chan struct{} // closed when the gate shuts
	open   chan struct{} // closed when the gate reopens
	parked chan struct{} // receives once per read that waits at the gate
}

func (g *gatedDevice) ReadWord(bank, wordIdx int) ([]uint64, error) {
	select {
	case <-g.shut:
		select {
		case g.parked <- struct{}{}:
		default:
		}
		<-g.open
	default:
	}
	return g.Device.ReadWord(bank, wordIdx)
}

// gatedDevices hands the devices the "gated-sim" backend opens to the test
// that opened them.
var gatedDevices = make(chan *gatedDevice, 1)

func init() {
	if err := RegisterBackend("gated-sim", func(p BackendParams) (Device, error) {
		dev, err := OpenBackend("sim", p)
		if err != nil {
			return nil, err
		}
		g := &gatedDevice{Device: dev, shut: make(chan struct{}), open: make(chan struct{}), parked: make(chan struct{}, 1)}
		gatedDevices <- g
		return g, nil
	}); err != nil {
		panic(err)
	}
}

// TestDRBGReadNotBlockedByRawHarvest: a ReadRaw waiting inside a raw harvest
// holds only its member's screening lock, so a DRBG-tier Read on the same
// health-tested Source completes while the harvest is still stalled.
func TestDRBGReadNotBlockedByRawHarvest(t *testing.T) {
	src, err := Open(context.Background(), quickProfile(t), WithShards(2),
		WithDRBG(DRBGPolicy{}), WithBackend("gated-sim", nil))
	if err != nil {
		t.Fatal(err)
	}
	dev := <-gatedDevices
	rawStarted, rawDone := make(chan struct{}), make(chan error, 1)
	defer func() {
		close(dev.open)
		src.Close()
		<-rawDone
	}()
	go func() {
		close(rawStarted)
		// Far more than the shard rings buffer: the read outlasts the gate.
		_, err := src.ReadRaw(make([]byte, 1<<20))
		rawDone <- err
	}()
	<-rawStarted
	close(dev.shut)
	select {
	case <-dev.parked:
	case <-time.After(30 * time.Second):
		t.Fatal("the raw read never reached the gated device")
	}
	// Let the raw reader settle into its wait for the stalled shards.
	time.Sleep(50 * time.Millisecond)
	drbgDone := make(chan error, 1)
	go func() {
		_, err := src.Read(make([]byte, 64))
		drbgDone <- err
	}()
	select {
	case err := <-drbgDone:
		if err != nil {
			t.Fatalf("DRBG read beside a stalled raw harvest: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("DRBG read waited on a stalled raw harvest")
	}
}
