package angstrom

import (
	"math"

	"angstrom/internal/sim"
	"angstrom/internal/workload"
)

// Tile is one core's observation state: the memory-mapped counter file,
// event probes with their hardware queue, the fine-grained sensors of
// §4.1, and the attached partner core of §4.3.
type Tile struct {
	Counters *CounterFile
	Probes   *ProbeSet
	Queue    *EventQueue
	Thermal  *Thermal
	Voltage  VoltageSensor
	Partner  *PartnerCore
}

// NewTiles builds n tiles' observation state at configuration cfg's
// operating point: empty counters and probes, a 64-entry event queue,
// a thermal sensor at the in-package ambient, and a partner core paired
// with each main core.
func NewTiles(p Params, cfg Config, n int) ([]*Tile, error) {
	if err := p.Validate(cfg); err != nil {
		return nil, err
	}
	tiles := make([]*Tile, 0, n)
	for i := 0; i < n; i++ {
		t := &Tile{Counters: &CounterFile{}, Probes: &ProbeSet{}}
		q, err := NewEventQueue(64)
		if err != nil {
			return nil, err
		}
		t.Queue = q
		t.Thermal, err = NewThermal(45, 8, 0.05) // 45°C ambient-in-package
		if err != nil {
			return nil, err
		}
		t.Voltage.Set(p.VF[cfg.VF].Volts)
		t.Partner, err = NewPartnerCore(p.VF[cfg.VF], p.Core, t.Counters, q)
		if err != nil {
			return nil, err
		}
		tiles = append(tiles, t)
	}
	return tiles, nil
}

// ObserveTiles folds dt seconds of execution at configuration cfg, whose
// model evaluation for spec is m, into the tiles' observation state:
// every tile's supply voltage and partner core track cfg's operating
// point, the first cfg.Cores tiles accumulate their share of the
// counter deltas and heat at their share of active power, power-gated
// tiles cool toward ambient, and every tile's probes are evaluated once
// at time now.
func ObserveTiles(tiles []*Tile, p Params, spec workload.Spec, cfg Config, m Metrics, dt float64, now sim.Time) {
	vf := p.VF[cfg.VF]
	perCoreInstr := uint64(m.IPS * dt / float64(cfg.Cores))
	perCoreCycles := uint64(vf.FHz * dt)
	// Both fractions below can go negative — CPI < 1 on a superscalar
	// model, or PowerW below the uncore floor — and a negative
	// float→uint64 conversion is implementation-defined in Go, which
	// corrupted the stall and energy counters. Clamp at zero.
	perCorePower := (m.PowerW - p.UncoreW) / float64(cfg.Cores)
	if perCorePower < 0 || math.IsNaN(perCorePower) {
		perCorePower = 0
	}
	stall := stallFrac(m.CPI)
	memOps := uint64(float64(perCoreInstr) * spec.MemOpsPerInstr)
	misses := uint64(float64(memOps) * m.MissRate)
	stalls := uint64(float64(perCoreCycles) * stall)
	for i, t := range tiles {
		t.Voltage.Set(vf.Volts)
		t.Partner.Main = vf
		if i < cfg.Cores {
			t.Counters.Add(CtrInstructions, perCoreInstr)
			t.Counters.Add(CtrCycles, perCoreCycles)
			t.Counters.Add(CtrMemOps, memOps)
			t.Counters.Add(CtrL2Misses, misses)
			t.Counters.Add(CtrL2Hits, memOps-misses)
			t.Counters.Add(CtrStallCycles, stalls)
			t.Counters.Add(CtrEnergyNJ, uint64(perCorePower*dt*1e9))
			t.Thermal.Step(perCorePower, dt)
		} else {
			t.Thermal.Step(0, dt) // power-gated tiles cool toward ambient
		}
		t.Probes.Evaluate(t.Counters, now)
	}
}
