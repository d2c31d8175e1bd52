package server

import (
	"errors"
	"fmt"
	"hash/fnv"
	"math"

	"angstrom/internal/actuator"
	"angstrom/internal/angstrom"
	"angstrom/internal/core"
	"angstrom/internal/sim"
	"angstrom/internal/workload"
)

// This file binds the serving daemon to the Angstrom chip model: in
// chip-backed mode every enrolled application holds a Partition of one
// shared angstrom.SharedChip, and the decision engine actuates *real*
// hardware knobs — core allocation, L2 capacity, DVFS — through the
// actuator.Knob contract instead of handing the client an advisory
// ladder. Observation flows the other way through actuator.Sensor:
// model IPS, attributed power, and stall fraction feed the controller
// alongside the heartbeats the partition emits as its workload executes.

// ChipConfig enables and tunes chip-backed serving.
type ChipConfig struct {
	// Chips is the number of identical dies in the fleet (default 1).
	// Each die has its own tile ledger, contention ledger, and manager;
	// enrollments are placed across dies by predicted shared-resource
	// pressure and may migrate between them (see MigrateSlowdown).
	Chips int
	// Tiles is the physical tile count of each die (default: the
	// daemon's core pool, capped at the model's MaxCores).
	Tiles int
	// CoreOptions is the ascending core-allocation ladder offered to
	// every application. Values must be powers of two and include 1
	// (every app starts on one core). Default: 1..64 powers of two,
	// capped at Tiles.
	CoreOptions []int
	// CacheOptionsKB is the ascending per-core L2 capacity ladder.
	// Default: 32, 64, 128.
	CacheOptionsKB []int
	// PowerBudgetW, when positive, is a per-die power budget: each tick
	// the daemon splits the budget beyond uncore across the die's
	// chip-backed applications by goal-implied need (each floored at its
	// cheapest configuration) and caps each decision engine's power
	// multiplier accordingly. A fleet of N dies shares N× the per-die
	// envelope beyond uncore, split across dies by the broker first.
	PowerBudgetW float64
	// MemBandwidthBps, when positive, overrides the chip model's
	// aggregate off-chip bandwidth — the capacity the cross-partition
	// contention ledger divides among co-located applications.
	MemBandwidthBps float64
	// NoCFlitBW, when positive, overrides the mesh's per-link bandwidth
	// in flits/cycle (the NoC side of the contention ledger).
	NoCFlitBW float64
	// MigrateSlowdown is the contention slowdown below which a
	// chip-backed application becomes a migration candidate in a
	// multi-die fleet (default 0.8: an app losing more than 20% of its
	// isolated throughput to co-tenant traffic may move). Negative
	// disables migration.
	MigrateSlowdown float64
	// Params overrides the chip model constants (default DefaultParams).
	Params *angstrom.Params
	// KnobWrap, when non-nil, wraps each partition's raw hardware knobs
	// before the daemon adds rate limiting and allocation clamping.
	// Tests use it to interpose recording fakes at the exact
	// Actuator/Sensor interface boundary.
	KnobWrap func(app string, k actuator.Knob) actuator.Knob
}

func (c *ChipConfig) fill(cores int) {
	if c.Chips == 0 {
		c.Chips = 1
	}
	if c.MigrateSlowdown == 0 {
		c.MigrateSlowdown = 0.8
	}
	if c.Params == nil {
		p := angstrom.DefaultParams()
		c.Params = &p
	}
	if c.MemBandwidthBps > 0 || c.NoCFlitBW > 0 {
		p := *c.Params // never mutate a caller-supplied Params
		if c.MemBandwidthBps > 0 {
			p.MemBandwidthBps = c.MemBandwidthBps
		}
		if c.NoCFlitBW > 0 {
			p.NoCFlitBW = c.NoCFlitBW
		}
		c.Params = &p
	}
	if c.Tiles == 0 {
		c.Tiles = cores
	}
	if c.Tiles > c.Params.MaxCores {
		c.Tiles = c.Params.MaxCores
	}
	if len(c.CoreOptions) == 0 {
		for v := 1; v <= 64 && v <= c.Tiles; v *= 2 {
			c.CoreOptions = append(c.CoreOptions, v)
		}
	}
	if len(c.CacheOptionsKB) == 0 {
		c.CacheOptionsKB = []int{32, 64, 128}
	}
}

func (c *ChipConfig) validate() error {
	if c.Chips < 1 {
		return fmt.Errorf("server: fleet of %d chips", c.Chips)
	}
	if c.Tiles < 1 {
		return fmt.Errorf("server: chip with %d tiles", c.Tiles)
	}
	if len(c.CoreOptions) == 0 || c.CoreOptions[0] != 1 {
		return fmt.Errorf("server: chip core options %v must start at 1", c.CoreOptions)
	}
	for _, v := range c.CoreOptions {
		if v > c.Tiles {
			return fmt.Errorf("server: core option %d exceeds %d tiles", v, c.Tiles)
		}
	}
	return nil
}

// base is the canonical configuration a chip-backed app enrolls at, and
// the one its action space and nominal power are priced against: one
// core, the smallest L2, the lowest operating point.
func (c *ChipConfig) base() angstrom.Config {
	return angstrom.Config{Cores: 1, CacheKB: c.CacheOptionsKB[0], VF: 0}
}

// seedFor derives a stable per-application workload seed so re-enrolling
// the same name reproduces the same beat sequence.
func seedFor(name string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(name))
	return h.Sum64()
}

// cappedKnob clamps every requested level so the knob's value never
// exceeds the manager's current allocation — the seam where the
// water-filling arbiter bounds the per-application decision engine.
type cappedKnob struct {
	actuator.Knob
	options []int
	units   func() int
}

func (k *cappedKnob) SetLevel(level int) error {
	if max := len(k.options) - 1; level > max {
		level = max
	}
	cap := k.units()
	for level > 0 && k.options[level] > cap {
		level--
	}
	return k.Knob.SetLevel(level)
}

// bindChip binds a to a partition of die a.chip acquired at an explicit
// start configuration, time share, and time, and builds its
// hardware-backed action space. Fresh enrollments start at the base
// configuration in the slot their die's ledger carved (MakeRoom);
// snapshot restore and migration re-acquire each partition at its
// recorded placement, which re-sums the tile ledger to its pre-crash
// value. The action space (and the nominal power the power rebalance
// prices from) is always built against the canonical base
// configuration, so a restored app's controller sees the same effect
// tables an uncrashed one does. On
// error nothing stays acquired. Reached only from attach, under d.mu,
// on behalf of a journaling writer (Enroll live, restoreApp on
// recovery, applyMigration).
//
//angstrom:journaled writer
func (d *Daemon) bindChip(a *app, start angstrom.Config, share float64, now sim.Time) error {
	cc := d.cfg.Chip
	sc := d.fleet.Chip(a.chip)
	p := *cc.Params
	base := cc.base()
	inst := workload.NewInstance(a.spec, seedFor(a.name))

	part, err := sc.Acquire(a.name, inst, a.mon, start, share, now)
	if err != nil {
		return fmt.Errorf("server: %w: %v", ErrPoolExhausted, err)
	}

	coreK, cacheK, vfK, err := part.Knobs(cc.CoreOptions, cc.CacheOptionsKB)
	if err != nil {
		sc.Release(a.name)
		return err
	}
	wrap := func(k actuator.Knob) actuator.Knob {
		if cc.KnobWrap != nil {
			k = cc.KnobWrap(a.name, k)
		}
		return actuator.NewStepped(k)
	}
	coreKnob := &cappedKnob{Knob: wrap(coreK), options: cc.CoreOptions, units: a.allocUnits}
	space, err := angstrom.KnobSpace(p, a.spec, base, cc.CoreOptions, cc.CacheOptionsKB,
		coreKnob, wrap(cacheK), wrap(vfK))
	if err != nil {
		sc.Release(a.name)
		return err
	}
	rt, err := core.New(a.name, d.clock, a.mon, space, core.Options{})
	if err != nil {
		sc.Release(a.name)
		return err
	}
	// rt is swapped under a.mu because a migration replaces it while
	// concurrent status readers render the standing decision against it;
	// part is an atomic pointer for the same reason.
	a.mu.Lock()
	a.rt = rt
	a.mu.Unlock()
	a.part.Store(part)
	// Nominal active watts at the *base* configuration (what Acquire
	// caches for a fresh enrollment; recomputed explicitly so a restore
	// at a non-base placement prices the power split identically).
	baseM, err := angstrom.Evaluate(p, a.spec, base)
	if err != nil {
		sc.Release(a.name)
		return err
	}
	a.nomActiveW = math.Max(baseM.PowerW-p.UncoreW, 1e-6)
	minX := math.Inf(1)
	for _, pt := range space.Points() {
		minX = math.Min(minX, pt.Effect.PowerX)
	}
	a.minPowerX = minX
	return nil
}

// runChipInterval is the act+observe phase for one chip-backed app:
// execute the previous decision's schedule (low slice first) over the
// elapsed wall/simulated interval, advancing the partition so it emits
// heartbeats at model-exact times. Called only from the tick goroutine.
func (d *Daemon) runChipInterval(a *app, now sim.Time) {
	part := a.partition()
	start := part.Now()
	dt := now - start
	if dt <= 0 {
		return
	}
	beatsBefore := a.mon.Count()
	defer func() {
		n := a.mon.Count() - beatsBefore
		d.beats.Add(n)
		d.chipBeats.Add(n)
	}()
	var actErr error
	apply := func(cfg actuator.Config) {
		err := a.rt.Apply(cfg)
		if errors.Is(err, angstrom.ErrTilePool) {
			d.refusals[a.chip].Add(1)
		}
		if err != nil && actErr == nil {
			actErr = err
		}
	}
	t := start
	for _, sl := range a.pending {
		apply(sl.Cfg)
		t += sl.Duration * dt
		if t > now {
			t = now
		}
		if err := part.Advance(t); err != nil {
			if actErr == nil {
				actErr = err
			}
			break
		}
	}
	if err := part.Advance(now); err != nil && actErr == nil {
		actErr = err
	}
	// Park the knobs at the schedule's duration-weighted configuration
	// for the inter-tick gap. Without this, a wide bang-bang schedule
	// (lo at the ladder bottom, hi at the top) deadlocks the stepped
	// knobs: applying lo then hi steps one rung down then one rung up —
	// net zero movement every tick — while the schedule's intent is the
	// weighted middle. The settle apply always ratchets one rung toward
	// that intent.
	if len(a.settle) > 0 {
		apply(a.settle)
	}
	a.mu.Lock()
	if actErr != nil {
		a.actErr = actErr.Error()
	} else {
		a.actErr = ""
	}
	a.mu.Unlock()
}

// settleConfig is the schedule's duration-weighted configuration: the
// per-axis rounded mean of the low and high settings. It is where the
// knobs should rest between intervals so repeated schedules make
// monotone progress toward the schedule's intent (see runChipInterval).
// It is written over dst's backing array, which the app reuses tick to
// tick.
func settleConfig(dst actuator.Config, dec core.Decision) actuator.Config {
	if len(dec.LoCfg) == 0 || len(dec.HiCfg) != len(dec.LoCfg) {
		return dst[:0]
	}
	out := append(dst[:0], make(actuator.Config, len(dec.LoCfg))...)
	for i := range dec.LoCfg {
		w := float64(dec.LoCfg[i])*(1-dec.HiFrac) + float64(dec.HiCfg[i])*dec.HiFrac
		// Ceil, not round: parking below the weighted level caps the
		// real mix at the lower rung pair and can pin a saturated
		// controller just under its band; erring high leaves the
		// continuous HiFrac room to trim the overshoot.
		out[i] = int(math.Ceil(w - 1e-9))
	}
	return out
}

// rebalancePowerCaps apportions the chip power budget beyond uncore
// across the chip-backed fleet in proportion to each application's
// goal-implied power requirement — the RLS-corrected multiplier its
// goal needs, priced at its nominal active power. An even split would
// starve power-hungry workloads while light ones sit on slack; and a
// requirement frozen at enrollment would go stale as the correction
// layer learns, so the split is re-derived every tick. SetPowerCap (a
// translator rebuild) only runs when an app's cap actually moves.
//
// Every cap is floored at the app's cheapest configuration (a cap below
// it would leave the decision engine with an empty feasible set). A
// floored app consumes more than its proportional slice, so the pass
// iterates: floored apps are charged at their floor, and the remaining
// budget is re-split across the rest until no new app floors. Only when
// even the floors alone exceed the budget do the summed caps overrun
// it; that overdraft is surfaced in /v1/stats as PowerOvercommitW
// rather than silently exceeding the budget. Called from the tick
// goroutine, which owns every Runtime; the opTick record journals the
// epoch, so the caps it applies replay deterministically.
//
//angstrom:journaled writer
func (d *Daemon) rebalancePowerCaps(chipApps []*app) {
	if d.cfg.Chip == nil || len(chipApps) == 0 || d.cfg.Chip.PowerBudgetW <= 0 {
		// No caps to sum: clear any overcommit left by a previous fleet
		// so stats never report an overdraft that no longer exists.
		d.powerOvercommit.Store(0)
		return
	}
	perDie := d.cfg.Chip.PowerBudgetW - d.cfg.Chip.Params.UncoreW
	needX := make([]float64, len(chipApps))
	for i, a := range chipApps {
		needX[i] = 1
		goals := a.mon.Goals()
		if g := goals.Performance; g != nil {
			base := a.rt.BaseEstimate() // observed rate at speedup 1
			if base <= 0 {
				base = a.partition().Metrics().HeartRate
			}
			if base > 0 {
				needX[i] = a.rt.RequiredPowerX(g.Target() / base)
			}
		}
	}
	// The fleet shares N× the per-die envelope, and the broker
	// water-fills it across dies by aggregate goal-implied need (floored
	// at each die's minimum operating points) before the per-die pass
	// splits each grant across its tenants. A lightly loaded die's slack
	// flows to a hot one instead of idling; one die gets the whole
	// envelope (the broker's n == 1 identity).
	nChips := len(d.mgrs)
	apps := make([][]*app, nChips)
	nx := make([][]float64, nChips)
	for i, a := range chipApps {
		apps[a.chip] = append(apps[a.chip], a)
		nx[a.chip] = append(nx[a.chip], needX[i])
	}
	need := make([]float64, nChips)
	floorW := make([]float64, nChips)
	for c := range apps {
		for i, a := range apps[c] {
			need[c] += nx[c][i] * a.nomActiveW
			floorW[c] += a.minPowerX * a.nomActiveW
		}
	}
	grants := d.broker.SplitWatts(perDie*float64(nChips), need, floorW)
	var over float64
	for c := range apps {
		if len(apps[c]) == 0 {
			continue
		}
		if o := d.rebalanceChipPower(apps[c], nx[c], grants[c]); o > 0 {
			over += o
		}
	}
	if over < 1e-6 {
		over = 0 // float residue of an exactly-filled budget
	}
	d.powerOvercommit.Store(math.Float64bits(over))
}

// rebalanceChipPower splits one die's power grant across its tenants
// (see rebalancePowerCaps) and returns the overdraft: the watts by
// which the floored caps exceed the grant (negative when slack is
// left). Water-fill with floors: each round splits the budget left
// after charging floored apps across the unfloored, flooring any app
// whose slice falls below its cheapest configuration. Each round floors
// at least one more app, so len(apps) rounds suffice.
//
//angstrom:journaled writer
func (d *Daemon) rebalanceChipPower(apps []*app, needX []float64, avail float64) float64 {
	floored := make([]bool, len(apps))
	scale := 0.0
	for round := 0; round <= len(apps); round++ {
		rem, sum := avail, 0.0
		for i, a := range apps {
			if floored[i] {
				rem -= a.minPowerX * a.nomActiveW
			} else {
				sum += needX[i] * a.nomActiveW
			}
		}
		if sum <= 0 {
			break // everyone floored
		}
		scale = math.Max(rem/sum, 0)
		changed := false
		for i, a := range apps {
			if !floored[i] && needX[i]*scale < a.minPowerX {
				floored[i] = true
				changed = true
			}
		}
		if !changed {
			break
		}
	}
	capped := 0.0
	for i, a := range apps {
		capX := needX[i] * scale
		if floored[i] || capX < a.minPowerX {
			capX = a.minPowerX
		}
		capped += capX * a.nomActiveW
		if a.lastCapX > 0 && math.Abs(capX-a.lastCapX) < 0.01*a.lastCapX {
			continue
		}
		if err := a.rt.SetPowerCap(capX); err == nil {
			a.lastCapX = capX
		}
	}
	return capped - avail
}
