package angstrom

import (
	"errors"
	"fmt"
	"math"
	"sync"

	"angstrom/internal/actuator"
	"angstrom/internal/heartbeat"
	"angstrom/internal/sim"
	"angstrom/internal/workload"
)

// This file implements multi-application sharing of one Angstrom chip:
// a SharedChip splits its tile pool into per-application Partitions,
// each an independently configurable slice of the hardware with its own
// actuation knobs (cores, L2 capacity, DVFS) and its own Sensor view
// (IPS, power, stall fraction). It is the chip model's one execution
// engine: a single simulated experiment runs as one partition at full
// share, and a long-lived daemon binds every enrolled application to
// real hardware knobs the same way — the paper's vision of the runtime
// arbitrating a 1000-core die across a fleet of self-aware applications.
//
// Concurrency model: SharedChip's mutex guards the tile ledger and the
// partition directory; each Partition's mutex guards its configuration,
// cached model metrics, and execution state. Lock order is SharedChip
// before Partition; Sense and Advance take only the partition lock, so
// status reads and the daemon's tick never serialize behind enrollment.
//
// Partitions evaluate the chip model independently for their own
// (workload, configuration) slice; the explicit resource ledgers (the
// tile pool here, time shares and power budgets in the serving layer)
// arbitrate what each may hold. On top of that, contention.go models
// the two resources no ledger partitions cleanly — off-chip memory
// bandwidth and the chip-wide mesh: UpdateContention aggregates every
// partition's traffic demand and degrades each one's effective IPS,
// stall fraction, and per-access power when the chip saturates, so
// co-location costs are visible to Sense and Advance.

// ErrTilePool is the tile ledger's refusal of a grow — a larger time
// share or more cores — that would push the die past its tiles. It is a
// sentinel so callers can count refusals with errors.Is, and so the
// refusal path builds no error value.
var ErrTilePool = errors.New("angstrom: grow would exceed the tile pool")

// SharedChip is one Angstrom chip whose tiles are partitioned among many
// applications. The ledger is kept in fractional core-equivalents: a
// partition holding C cores at time share s consumes C×s, so an
// oversubscribed fleet (time-sharing units) still respects the physical
// tile pool.
type SharedChip struct {
	p      Params
	tiles  int
	nocCap float64 // mesh flit-hop capacity (contention.go)

	mu   sync.Mutex
	used float64 // sum over partitions of Cores × Share
	// memScale derates the chip's off-chip bandwidth (thermal throttle,
	// failed channel, chaos injection). 1 = nominal.
	memScale float64
	parts    map[string]*Partition
	// order lists partitions in acquisition order: deterministic float
	// aggregation for the contention pass and power sums (map iteration
	// order would vary run to run and perturb last-ulp results).
	order        []*Partition
	contention   Contention    // last UpdateContention snapshot
	scratch      []contendSlot // reused by UpdateContention
	ledgerFaults uint64        // accounting violations caught by Release
}

// NewSharedChip builds a chip with the given tile count.
func NewSharedChip(p Params, tiles int) (*SharedChip, error) {
	if tiles < 1 || tiles > p.MaxCores {
		return nil, fmt.Errorf("angstrom: %d tiles outside [1, %d]", tiles, p.MaxCores)
	}
	sc := &SharedChip{p: p, tiles: tiles, nocCap: nocCapacity(p, tiles), memScale: 1, parts: make(map[string]*Partition)}
	sc.contention = Contention{MemCapacityBps: p.MemBandwidthBps, NoCCapacity: sc.nocCap}
	return sc, nil
}

// SetMemBandwidthScale derates the chip's off-chip bandwidth to
// scale × nominal — a thermal throttle, a failed memory channel, or a
// chaos injection. The derated capacity takes effect at the next
// contention pass. Inside internal/server this is journaled daemon
// state: only persist.go writers may call it.
//
//angstrom:journaled mutator
func (sc *SharedChip) SetMemBandwidthScale(scale float64) error {
	if !(scale > 0 && scale <= 1) {
		return fmt.Errorf("angstrom: mem bandwidth scale %g outside (0, 1]", scale)
	}
	sc.mu.Lock()
	defer sc.mu.Unlock()
	sc.memScale = scale
	return nil
}

// MemBandwidthScale reports the current off-chip bandwidth derating.
func (sc *SharedChip) MemBandwidthScale() float64 {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	return sc.memScale
}

// Params returns the chip constants.
func (sc *SharedChip) Params() Params { return sc.p }

// Tiles reports the physical tile count.
func (sc *SharedChip) Tiles() int { return sc.tiles }

// Acquire carves a partition for the named application, reserving
// cfg.Cores × share core-equivalents. The monitor receives the beats the
// partition emits as it advances; the instance supplies per-beat work.
// The tile ledger is journaled daemon state: inside internal/server
// only persist.go writers may call this.
//
//angstrom:journaled mutator
func (sc *SharedChip) Acquire(name string, inst *workload.Instance, mon *heartbeat.Monitor, cfg Config, share float64, start sim.Time) (*Partition, error) {
	if inst == nil || mon == nil {
		return nil, fmt.Errorf("angstrom: acquire %q with nil instance or monitor", name)
	}
	if err := sc.p.Validate(cfg); err != nil {
		return nil, err
	}
	if share <= 0 || share > 1 {
		return nil, fmt.Errorf("angstrom: time share %g outside (0, 1]", share)
	}
	m, err := Evaluate(sc.p, inst.Spec, cfg)
	if err != nil {
		return nil, err
	}
	sc.mu.Lock()
	defer sc.mu.Unlock()
	if _, dup := sc.parts[name]; dup {
		return nil, fmt.Errorf("angstrom: partition %q already acquired", name)
	}
	need := float64(cfg.Cores) * share
	if sc.used+need > float64(sc.tiles)+1e-9 {
		return nil, fmt.Errorf("angstrom: %g core-equivalents requested, %g of %d free",
			need, float64(sc.tiles)-sc.used, sc.tiles)
	}
	pt := &Partition{sc: sc, name: name, inst: inst, mon: mon, cfg: cfg, share: share, m: m, now: start}
	pt.terms = newContendTerms(sc.p, inst.Spec.MemOpsPerInstr, inst.Spec.FlitsPerKiloInstr, cfg, m)
	pt.intf = isolatedInterference(m)
	pt.contendedPowerW = m.PowerW
	sc.used += need
	sc.parts[name] = pt
	sc.order = append(sc.order, pt)
	return pt, nil
}

// isolatedInterference is the identity degradation: the partition runs
// exactly as its isolated model evaluation predicts, which is the state
// before the first contention pass (and after a reconfiguration, until
// the next pass re-prices the new demand).
func isolatedInterference(m Metrics) Interference {
	return Interference{Slowdown: 1, CPI: m.CPI, StallFrac: stallFrac(m.CPI), MemRho: m.MemRho}
}

// MakeRoom returns the time share a new single-core partition should be
// acquired at. When the die has a free tile the newcomer gets a
// dedicated one (share 1). Otherwise the incumbents give up the
// newcomer's fair slot, tiles/(partitions+1), in proportion to their
// share mass above floor, so partitions at the floor never move; a
// second round re-spreads whatever float residue the first left.
// Partitions are walked in acquisition order, so the resulting shares
// are a function of this die's history alone. A fair slot below floor
// is refused before anything moves, and so is a die whose incumbents
// are all floored with less than floor left free.
//
//angstrom:journaled mutator
func (sc *SharedChip) MakeRoom(floor float64) (float64, error) {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	tiles := float64(sc.tiles)
	if tiles-sc.used >= 1 {
		return 1, nil
	}
	slot := math.Min(tiles/float64(len(sc.order)+1), 1)
	if slot < floor {
		return 0, fmt.Errorf("angstrom: %d partitions on %d tiles: oversubscribed beyond %gx", len(sc.order), sc.tiles, 1/floor)
	}
	for iter := 0; iter < 2; iter++ {
		excess := sc.used - (tiles - slot)
		if excess <= 1e-9 {
			break
		}
		above := 0.0 // shrinkable core-equivalents: share mass beyond the floor
		for _, pt := range sc.order {
			pt.mu.Lock()
			if pt.share > floor {
				above += float64(pt.cfg.Cores) * (pt.share - floor)
			}
			pt.mu.Unlock()
		}
		if above <= 1e-12 {
			break // every incumbent already at the floor
		}
		f := math.Max(1-excess/above, 0)
		for _, pt := range sc.order {
			pt.mu.Lock()
			if s := pt.share; s > floor {
				share := floor + (s-floor)*f
				sc.used += float64(pt.cfg.Cores) * (share - s)
				pt.share = share
			}
			pt.mu.Unlock()
		}
	}
	free := tiles - sc.used
	if free < floor {
		return 0, fmt.Errorf("angstrom: %g of %d tiles free, below the %g share floor", free, sc.tiles, floor)
	}
	return math.Min(slot, free), nil
}

// ledgerEps absorbs the float residue of repeated fractional-share
// add/subtract cycles; a deficit beyond it is an accounting bug.
const ledgerEps = 1e-6

// Release returns a partition's tiles to the pool. Releasing an unknown
// name is a no-op. A ledger that would go negative beyond float residue
// means double-release or lost accounting — it is counted as a fault
// (LedgerFaults) instead of being silently clamped away.
//
//angstrom:journaled mutator
func (sc *SharedChip) Release(name string) {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	pt, ok := sc.parts[name]
	if !ok {
		return
	}
	pt.mu.Lock()
	sc.used -= float64(pt.cfg.Cores) * pt.share
	pt.released = true
	pt.mu.Unlock()
	delete(sc.parts, name)
	for i, o := range sc.order {
		if o == pt {
			sc.order = append(sc.order[:i], sc.order[i+1:]...)
			break
		}
	}
	if sc.used < 0 {
		if sc.used < -ledgerEps {
			sc.ledgerFaults++
		}
		sc.used = 0
	}
}

// LedgerFaults counts accounting violations the tile ledger has caught
// (a release that would drive usage negative). Always zero unless a
// bookkeeping bug exists; tests and /v1/chip surface it so drift fails
// loudly instead of being masked.
func (sc *SharedChip) LedgerFaults() uint64 {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	return sc.ledgerFaults
}

// Usage reports the partition count and the core-equivalents in use.
func (sc *SharedChip) Usage() (partitions int, coreEquivalents float64) {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	return len(sc.parts), sc.used
}

// TotalPowerW sums every partition's attributed power plus the chip's
// constant uncore overhead — the quantity a shared power budget bounds.
func (sc *SharedChip) TotalPowerW() float64 {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	total := sc.p.UncoreW
	for _, pt := range sc.order {
		total += pt.Sense().PowerW
	}
	return total
}

// Partition is one application's slice of a SharedChip: a private
// configuration over shared tiles, a cached model evaluation, and the
// execution state that turns model IPS into heartbeats.
type Partition struct {
	sc   *SharedChip
	name string
	inst *workload.Instance
	mon  *heartbeat.Monitor

	mu        sync.Mutex
	cfg       Config
	share     float64 // time share of the held cores (1 = dedicated)
	m         Metrics // model evaluation for cfg, cached until reconfigured
	beat      uint64
	workCarry float64  // instructions completed toward the next beat
	now       sim.Time // partition-local execution frontier
	energyJ   float64
	released  bool

	// Cross-partition contention state (contention.go): the demand
	// terms recomputed at every reconfiguration, and the degradation
	// the last chip-wide pass assigned. Reads are cached-float loads,
	// so Sense stays allocation-free.
	terms           contendTerms
	intf            Interference
	contendedPowerW float64 // m.PowerW minus throughput-scaled NoC/DRAM energy
}

// Name returns the owning application's name.
func (pt *Partition) Name() string { return pt.name }

// Config returns the partition's current hardware configuration.
func (pt *Partition) Config() Config {
	pt.mu.Lock()
	defer pt.mu.Unlock()
	return pt.cfg
}

// Share returns the current time share.
func (pt *Partition) Share() float64 {
	pt.mu.Lock()
	defer pt.mu.Unlock()
	return pt.share
}

// Now reports the partition's execution frontier: the simulated time up
// to which Advance has run the application.
func (pt *Partition) Now() sim.Time {
	pt.mu.Lock()
	defer pt.mu.Unlock()
	return pt.now
}

// SetShare changes the partition's time share, adjusting the chip's
// core-equivalent ledger. Growth beyond the free pool is refused with
// ErrTilePool.
//
//angstrom:journaled mutator
func (pt *Partition) SetShare(share float64) error {
	if share <= 0 || share > 1 {
		return fmt.Errorf("angstrom: time share %g outside (0, 1]", share)
	}
	sc := pt.sc
	sc.mu.Lock()
	defer sc.mu.Unlock()
	pt.mu.Lock()
	defer pt.mu.Unlock()
	if pt.released {
		return fmt.Errorf("angstrom: partition %q released", pt.name)
	}
	delta := float64(pt.cfg.Cores) * (share - pt.share)
	if sc.used+delta > float64(sc.tiles)+1e-9 {
		return ErrTilePool
	}
	sc.used += delta
	pt.share = share
	return nil
}

// setConfig validates and applies a new configuration, adjusting the
// tile ledger for core-count changes and re-evaluating the cached model.
// A core-count grow beyond the free pool is refused with ErrTilePool.
func (pt *Partition) setConfig(cfg Config) error {
	if err := pt.sc.p.Validate(cfg); err != nil {
		return err
	}
	m, err := Evaluate(pt.sc.p, pt.inst.Spec, cfg)
	if err != nil {
		return err
	}
	sc := pt.sc
	sc.mu.Lock()
	defer sc.mu.Unlock()
	pt.mu.Lock()
	defer pt.mu.Unlock()
	if pt.released {
		return fmt.Errorf("angstrom: partition %q released", pt.name)
	}
	delta := float64(cfg.Cores-pt.cfg.Cores) * pt.share
	if sc.used+delta > float64(sc.tiles)+1e-9 {
		return ErrTilePool
	}
	sc.used += delta
	pt.cfg = cfg
	pt.m = m
	// Re-derive the contention inputs, carrying the current slowdown
	// onto the new evaluation (a reconfiguration does not relieve
	// co-tenant pressure; the next chip-wide pass re-prices it exactly).
	// Resetting to the identity here would let the schedule's per-tick
	// knob flips erase the contention pass before Advance ever saw it.
	pt.terms = newContendTerms(sc.p, pt.inst.Spec.MemOpsPerInstr, pt.inst.Spec.FlitsPerKiloInstr, cfg, m)
	slow := pt.intf.Slowdown
	if !(slow > 0 && slow <= 1) {
		slow = 1
	}
	cpi := m.CPI / slow
	pt.intf.Slowdown, pt.intf.CPI, pt.intf.StallFrac = slow, cpi, stallFrac(cpi)
	pt.contendedPowerW = m.PowerW - (m.NoCW+m.MemW)*(1-slow)
	return nil
}

// Sense implements actuator.Sensor: the partition's share-scaled view of
// the chip model — aggregate IPS, attributed power (active power beyond
// uncore, scaled by the time share), memory stall fraction, predicted
// heart rate, and cumulative energy. Every figure is degraded by the
// last contention pass's Interference, so the controller and the
// manager observe real co-location costs, not per-app projections. It
// is a cached-struct read under one mutex: allocation-free and cheap
// enough for every status request (BenchmarkPartitionSense gates it at
// 0 allocs/op).
//
//angstrom:hotpath
func (pt *Partition) Sense() actuator.Sample {
	pt.mu.Lock()
	defer pt.mu.Unlock()
	active := pt.contendedPowerW - pt.sc.p.UncoreW
	if active < 0 {
		active = 0
	}
	return actuator.Sample{
		Time:      pt.now,
		IPS:       pt.m.IPS * pt.share * pt.intf.Slowdown,
		PowerW:    active * pt.share,
		StallFrac: pt.intf.StallFrac,
		HeartRate: pt.m.HeartRate * pt.share * pt.intf.Slowdown,
		EnergyJ:   pt.energyJ,
	}
}

// Interference returns the degradation the last contention pass
// assigned to this partition (the identity before the first pass).
func (pt *Partition) Interference() Interference {
	pt.mu.Lock()
	defer pt.mu.Unlock()
	return pt.intf
}

// Metrics returns the cached model evaluation for the current
// configuration (unscaled by the time share).
func (pt *Partition) Metrics() Metrics {
	pt.mu.Lock()
	defer pt.mu.Unlock()
	return pt.m
}

// Advance executes the partition's application up to time `until`,
// emitting heartbeats into the monitor at their model-exact completion
// times (so windowed rates see no batching bias) and integrating energy.
// The effective execution rate is the model's IPS scaled by the time
// share. Calls with `until` at or before the current frontier are no-ops.
func (pt *Partition) Advance(until sim.Time) error {
	pt.mu.Lock()
	defer pt.mu.Unlock()
	if pt.released {
		return fmt.Errorf("angstrom: partition %q released", pt.name)
	}
	ips := pt.m.IPS * pt.share * pt.intf.Slowdown
	if ips <= 0 || math.IsNaN(ips) {
		return fmt.Errorf("angstrom: partition %q effective IPS %g not positive", pt.name, ips)
	}
	for pt.now < until-1e-12 {
		work := pt.inst.WorkForBeat(pt.beat)
		if work <= 0 || math.IsNaN(work) {
			return fmt.Errorf("angstrom: work %g for beat %d is not positive", work, pt.beat)
		}
		need := work - pt.workCarry
		if need < 0 {
			need = 0 // carry overshoot (reconfiguration mid-beat): emit now
		}
		tBeat := need / ips
		if pt.now+tBeat <= until {
			pt.now += tBeat
			pt.energyJ += pt.attributedPowerW() * tBeat
			pt.mon.BeatAt(pt.now)
			pt.beat++
			pt.workCarry = 0
		} else {
			rem := until - pt.now
			pt.workCarry += rem * ips
			pt.now = until
			pt.energyJ += pt.attributedPowerW() * rem
		}
	}
	return nil
}

// attributedPowerW is the power charged to this partition, degraded by
// the contention pass (stalled cycles still burn core and cache power;
// NoC and DRAM energy scale with achieved throughput); caller holds
// pt.mu.
func (pt *Partition) attributedPowerW() float64 {
	active := pt.contendedPowerW - pt.sc.p.UncoreW
	if active < 0 {
		active = 0
	}
	return active * pt.share
}

// --- Knobs: the act-side hardware contract ---------------------------

// Knobs returns the partition's three hardware knobs — core allocation,
// per-core L2 capacity, and the DVFS operating point — as
// actuator.Knob implementations. The option slices must be ascending and
// include the partition's current setting (so every knob has a
// well-defined starting rung).
func (pt *Partition) Knobs(coreOptions, cacheOptionsKB []int) (cores, cache, dvfs actuator.Knob, err error) {
	cfg := pt.Config()
	if err := validOptions("core", coreOptions, cfg.Cores); err != nil {
		return nil, nil, nil, err
	}
	if err := validOptions("cache", cacheOptionsKB, cfg.CacheKB); err != nil {
		return nil, nil, nil, err
	}
	return &coreKnob{pt: pt, options: coreOptions},
		&cacheKnob{pt: pt, optionsKB: cacheOptionsKB},
		&vfKnob{pt: pt}, nil
}

// KnobSpace turns a partition's three knobs into SEEC actuators whose
// declared effects are the chip model's predicted multipliers relative
// to the base configuration (the designer-declared model of §3.2; the
// runtime's RLS layer corrects divergence on line). Each rung's speedup
// is its heart rate over base's, its power multiplier the ratio of
// active power beyond uncore; the rung holding base's own setting is
// the identity. The option slices are the ones the knobs were built
// from (Partition.Knobs), and the knobs may be wrapped (rate limiting,
// allocation clamps) as long as their levels still index them.
func KnobSpace(p Params, spec workload.Spec, base Config, coreOptions, cacheOptionsKB []int,
	cores, cache, dvfs actuator.Knob) (*actuator.Space, error) {
	baseM, err := Evaluate(p, spec, base)
	if err != nil {
		return nil, err
	}
	baseActive := math.Max(baseM.PowerW-p.UncoreW, 1e-9)
	ladder := func(k actuator.Knob, n int, cfgAt func(int) Config, label func(int) string, delay float64) (*actuator.Actuator, error) {
		labels := make([]string, n)
		speed := make([]float64, n)
		power := make([]float64, n)
		for i := 0; i < n; i++ {
			labels[i] = label(i)
			cfg := cfgAt(i)
			if cfg == base {
				speed[i], power[i] = 1, 1
				continue
			}
			m, merr := Evaluate(p, spec, cfg)
			if merr != nil {
				return nil, merr
			}
			speed[i] = m.HeartRate / baseM.HeartRate
			power[i] = math.Max(m.PowerW-p.UncoreW, 1e-9) / baseActive
		}
		return actuator.FromKnob(k, labels, speed, power, delay, actuator.GlobalScope)
	}
	coreAct, err := ladder(cores, len(coreOptions),
		func(i int) Config { c := base; c.Cores = coreOptions[i]; return c },
		func(i int) string { return fmt.Sprintf("%d cores", coreOptions[i]) }, 0.001)
	if err != nil {
		return nil, err
	}
	cacheAct, err := ladder(cache, len(cacheOptionsKB),
		func(i int) Config { c := base; c.CacheKB = cacheOptionsKB[i]; return c },
		func(i int) string { return fmt.Sprintf("%dKB L2", cacheOptionsKB[i]) }, 0.0001)
	if err != nil {
		return nil, err
	}
	vfAct, err := ladder(dvfs, len(p.VF),
		func(i int) Config { c := base; c.VF = i; return c },
		func(i int) string { return fmt.Sprintf("%.1fV/%.0fMHz", p.VF[i].Volts, p.VF[i].FHz/1e6) }, 0.0005)
	if err != nil {
		return nil, err
	}
	return actuator.NewSpace(coreAct, cacheAct, vfAct)
}

func validOptions(kind string, options []int, current int) error {
	if len(options) == 0 {
		return fmt.Errorf("angstrom: no %s options", kind)
	}
	found := false
	for i, v := range options {
		if i > 0 && v <= options[i-1] {
			return fmt.Errorf("angstrom: %s options not ascending", kind)
		}
		if v == current {
			found = true
		}
	}
	if !found {
		return fmt.Errorf("angstrom: current %s setting %d not among options %v", kind, current, options)
	}
	return nil
}

func indexOf(options []int, v int) int {
	for i, o := range options {
		if o == v {
			return i
		}
	}
	return 0
}

// coreKnob resizes the partition's core allocation.
type coreKnob struct {
	pt      *Partition
	options []int
}

func (k *coreKnob) Name() string { return "cores" }
func (k *coreKnob) Levels() int  { return len(k.options) }
func (k *coreKnob) Level() int   { return indexOf(k.options, k.pt.Config().Cores) }
func (k *coreKnob) SetLevel(level int) error {
	if level < 0 || level >= len(k.options) {
		return fmt.Errorf("angstrom: core level %d outside [0, %d)", level, len(k.options))
	}
	cfg := k.pt.Config()
	cfg.Cores = k.options[level]
	return k.pt.setConfig(cfg)
}

// cacheKnob resizes the partition's per-core L2 capacity.
type cacheKnob struct {
	pt        *Partition
	optionsKB []int
}

func (k *cacheKnob) Name() string { return "l2-capacity" }
func (k *cacheKnob) Levels() int  { return len(k.optionsKB) }
func (k *cacheKnob) Level() int   { return indexOf(k.optionsKB, k.pt.Config().CacheKB) }
func (k *cacheKnob) SetLevel(level int) error {
	if level < 0 || level >= len(k.optionsKB) {
		return fmt.Errorf("angstrom: cache level %d outside [0, %d)", level, len(k.optionsKB))
	}
	cfg := k.pt.Config()
	cfg.CacheKB = k.optionsKB[level]
	return k.pt.setConfig(cfg)
}

// vfKnob selects the partition's DVFS operating point.
type vfKnob struct {
	pt *Partition
}

func (k *vfKnob) Name() string { return "dvfs" }
func (k *vfKnob) Levels() int  { return len(k.pt.sc.p.VF) }
func (k *vfKnob) Level() int   { return k.pt.Config().VF }
func (k *vfKnob) SetLevel(level int) error {
	if level < 0 || level >= len(k.pt.sc.p.VF) {
		return fmt.Errorf("angstrom: VF level %d outside [0, %d)", level, len(k.pt.sc.p.VF))
	}
	cfg := k.pt.Config()
	cfg.VF = level
	return k.pt.setConfig(cfg)
}

var (
	_ actuator.Sensor = (*Partition)(nil)
	_ actuator.Knob   = (*coreKnob)(nil)
	_ actuator.Knob   = (*cacheKnob)(nil)
	_ actuator.Knob   = (*vfKnob)(nil)
)
