package drange

// The one construction path behind Open and OpenPool: servingCore.open
// resolves the policies once, openMember opens one member per profile, and
// newSampler starts every sampler (readmission's included).

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/health"
	"repro/internal/memctrl"
)

// sampled is a member's running sampler and the selections it samples. eng
// is src for the sharded engine; ctrl is the sequential TRNG's controller,
// which the estimators re-synchronise. Exactly one of the two is non-nil.
type sampled struct {
	src  sampler
	eng  *core.Engine
	ctrl *memctrl.Controller
	sels []core.BankSelection
}

// newSampler starts the sampler of one member over dev: the sequential TRNG
// for shards == 0, else the sharded engine, which runs until ctx is
// cancelled or it is closed.
func newSampler(ctx context.Context, dev Device, profile *Profile, shards int, trcd float64) (sampled, error) {
	pat, err := parsePattern(profile.Characterization.Pattern)
	if err != nil {
		return sampled{}, err
	}
	sels, err := coreSelections(profile.EffectiveCells(), profile.EffectiveSelections())
	if err != nil {
		return sampled{}, err
	}
	cfg := core.TRNGConfig{TRCDNS: trcd, Pattern: pat}
	if shards == 0 {
		ctrl := memctrl.NewController(dev)
		trng, err := core.NewTRNG(ctrl, sels, cfg)
		if err != nil {
			return sampled{}, err
		}
		return sampled{src: trng, ctrl: ctrl, sels: sels}, nil
	}
	eng, err := core.NewEngine(ctx, dev, sels, core.EngineConfig{Shards: shards, TRNG: cfg})
	if err != nil {
		return sampled{}, err
	}
	return sampled{src: eng, eng: eng, sels: sels}, nil
}

// open brings up c over one member per profile. c.single selects the
// 1-member surface: the sequential sampler by default, no device-health
// policy, HealthActionError as the default trip action and bare errors. Every
// policy is validated before a device opens; a later failure releases every
// member opened so far.
//
//drange:holds mu construction: the core is not published until open returns
func (c *servingCore) open(ctx context.Context, profiles []*Profile, o *options) error {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := o.rejectCharacterizationOnly(); err != nil {
		return err
	}
	// Resolve the DRBG tier first: it implies the health tests.
	drbgPolicy, drbgOn, err := o.resolveDRBG()
	if err != nil {
		return err
	}
	shards := 0 // Open's default: the sequential sampler
	if o.shards != nil {
		shards = *o.shards
	}
	if shards < 0 {
		return fmt.Errorf("drange: negative shard count %d", shards)
	}
	if shards == 0 && !c.single {
		shards = 1 // every pool member runs an engine
	}
	// The device-health policy (bias/temperature windows) is an OpenPool
	// feature; Open rejects WithHealth before getting here.
	c.policy = HealthPolicy{Disabled: c.single}
	if o.health != nil {
		c.policy = *o.health
	}
	if c.policy.WindowBits < 0 {
		return fmt.Errorf("drange: WithHealth: negative WindowBits %d", c.policy.WindowBits)
	}
	c.policy = c.policy.withDefaults()
	if o.healthTests != nil && !o.healthTests.Disabled {
		hp := o.healthTests.withDefaults(!c.single)
		switch {
		case hp.OnFailure < HealthActionDefault || hp.OnFailure > HealthActionEvict:
			return fmt.Errorf("drange: WithHealthTests: unknown OnFailure action %v", hp.OnFailure)
		case hp.MaxBlockedWindows < 0:
			return fmt.Errorf("drange: WithHealthTests: negative MaxBlockedWindows %d", hp.MaxBlockedWindows)
		case c.single && hp.OnFailure == HealthActionEvict:
			return fmt.Errorf("drange: health action %q applies to OpenPool, not Open (there is no pool member to evict)", hp.OnFailure)
		}
		c.testsEnabled, c.testsPolicy = true, hp
	}
	if len(o.post) > 0 {
		if c.post, err = newPostChain(o.post); err != nil {
			return err
		}
	}

	pctx, cancel := context.WithCancel(ctx)
	c.cancel = cancel
	fail := func(err error) error {
		c.closeMembers()
		cancel()
		return err
	}
	for i, profile := range profiles {
		if err := c.openMember(pctx, i, profile, o, shards); err != nil {
			return fail(err)
		}
	}
	// Engine-backed members are thread-safe, so the lock-free fast path is
	// available; the sequential TRNG sampler is not.
	c.concurrent = shards > 0
	if err := c.runStartupTests(); err != nil {
		return fail(err)
	}
	if drbgOn {
		// The ledger registers as each monitor's credit sink before the seed
		// harvest, so even the first seed accrues toward the credit windows.
		c.drbgOn, c.drbgPolicy = true, drbgPolicy
		if err := c.instantiateDRBGs(); err != nil {
			return fail(err)
		}
	}
	// The recharacterizer starts last, once the member set is final: members
	// retired before this point (startup failures are terminal anyway) were
	// never quarantined, so the channel starts empty.
	if o.rechar != nil && !o.rechar.Disabled {
		c.pctx = pctx
		c.recharOn = true
		c.recharPolicy = o.rechar.withDefaults()
		c.recharCh = make(chan *servingMember, len(c.members))
		c.recharWG.Add(1)
		go c.recharacterizer(pctx)
	}
	return nil
}

// openMember opens member i of c over profile: it checks the profile against
// the identity options, opens the device, verifies the device against the
// profile, starts the sampler and attaches the health monitor. The member
// joins c as soon as its device is open, so a later failure releases it. A
// single core's member has idx -1, the Device value its HealthErrors report.
//
//drange:holds mu construction: runs from open before the core is published
func (c *servingCore) openMember(ctx context.Context, i int, profile *Profile, o *options, shards int) error {
	// Pool errors name the member; a single core keeps Open's wording.
	idx, profName, devName := -1, "profile", "device"
	if !c.single {
		idx, profName, devName = i, fmt.Sprintf("profile %d", i), fmt.Sprintf("pool device %d", i)
	}
	wrap := func(name string, err error) error {
		if c.single {
			return err
		}
		return fmt.Errorf("drange: %s: %w", name, err)
	}
	if profile == nil {
		return fmt.Errorf("drange: nil profile at index %d", i)
	}
	if err := profile.Validate(); err != nil {
		return wrap(profName, err)
	}
	// RNG-cell locations are per-device process variation: sampling another
	// device's cells would not be random, so identity options pin the member.
	if o.manufacturer != nil && *o.manufacturer != profile.Manufacturer {
		return fmt.Errorf("drange: device mismatch: %s was characterized on manufacturer %q, not %q", profName, profile.Manufacturer, *o.manufacturer)
	}
	if o.serial != nil && *o.serial != profile.Serial {
		return fmt.Errorf("drange: device mismatch: %s was characterized on serial %d, not %d", profName, profile.Serial, *o.serial)
	}
	if o.geometry != nil && *o.geometry != profile.Geometry {
		return fmt.Errorf("drange: device mismatch: %s geometry %+v differs from requested %+v", profName, profile.Geometry, *o.geometry)
	}
	deterministic := profile.Characterization.Deterministic
	if o.deterministic != nil {
		deterministic = *o.deterministic
	}
	trcd := profile.Characterization.TRCDNS
	if o.trcdNS != nil {
		trcd = *o.trcdNS
	}
	mo := *o
	if spec, ok := o.deviceBackends[i]; ok {
		mo.backend = &spec
	}
	dev, backend, err := mo.resolveDevice(profile.Manufacturer, profile.Serial, deterministic, profile.Geometry)
	if err != nil {
		return wrap(devName, err)
	}
	m := &servingMember{
		idx:       idx,
		profile:   profile,
		backend:   backend,
		dev:       dev,
		shards:    shards,
		trcdNS:    trcd,
		ownsDev:   o.device == nil,
		baseTempC: dev.Temperature(),
	}
	c.members = append(c.members, m)
	// Backends construct to the profile's identity, but a WithDevice device
	// (or a backend ignoring the requested identity) may not match: verify
	// it before sampling.
	if s := dev.Serial(); s != profile.Serial {
		return fmt.Errorf("drange: %s mismatch: profile was characterized on serial %d, but the device reports %d", devName, profile.Serial, s)
	}
	if dg := dev.Geometry(); dg != profile.Geometry {
		return fmt.Errorf("drange: %s mismatch: profile geometry %+v differs from the device's %+v", devName, profile.Geometry, dg)
	}
	if m.sampled, err = newSampler(ctx, dev, profile, shards, trcd); err != nil {
		if c.single {
			return fmt.Errorf("drange: %w", err)
		}
		return wrap(devName, err)
	}
	m.fastEng.Store(m.eng)
	if c.testsEnabled {
		mon, err := health.New(c.testsPolicy.config())
		if err != nil {
			return fmt.Errorf("drange: %w", err)
		}
		m.monitor, m.startupOK = mon, true
	}
	return nil
}
