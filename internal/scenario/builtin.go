package scenario

import "fmt"

// Builtins returns the named scenario library: each entry is a
// self-contained spec with budgets tuned to the daemon's current
// behavior, so a regression in arbitration, control, or recovery shows
// up as a budget violation in `make scenarios`.
func Builtins() []Spec {
	return []Spec{
		{
			// A steady fleet comfortably inside the pool: the baseline
			// gate — if this regresses, everything else is noise.
			Name: "steady", Seed: 1, Ticks: 120, TickSeconds: 0.5,
			Cores: 64, WarmupTicks: 20,
			Classes: []Class{
				{Name: "web", Workload: "barnes", Count: 24, MinRate: 16, MaxRate: 48, BaseRate: 10, NoiseStd: 0.05},
			},
			Budgets: Budgets{MaxFleetRegretFrac: 0.05, MinFleetInBandFrac: 0.85, MaxAppRegretFrac: 0.10},
		},
		{
			// Sinusoidal arrivals with exponential lifetimes: the fleet
			// breathes and the allocator must track the churn.
			Name: "diurnal", Seed: 7, Ticks: 240, TickSeconds: 0.5,
			Cores: 64, WarmupTicks: 30, Oversubscribe: true,
			Classes: []Class{
				{Name: "base", Workload: "ocean", Count: 16, MinRate: 12, MaxRate: 40, BaseRate: 10, NoiseStd: 0.05},
				{Name: "tide", Workload: "water", Count: 4, MinRate: 8, MaxRate: 30, BaseRate: 10,
					ArrivalsPerTick: 0.5, DiurnalAmp: 0.8, DiurnalPeriodTicks: 80, MeanLifeTicks: 30, NoiseStd: 0.05},
			},
			Budgets: Budgets{MaxFleetRegretFrac: 0.05, MinFleetInBandFrac: 0.80, MaxAppRegretFrac: 0.15},
		},
		{
			// The 10x arrival burst in one tick, decaying over ~30 ticks,
			// followed by a mass withdrawal of the survivors.
			Name: "flash-crowd", Seed: 11, Ticks: 200, TickSeconds: 0.5,
			Cores: 64, WarmupTicks: 20, Oversubscribe: true,
			Classes: []Class{
				{Name: "web", Workload: "barnes", Count: 20, MinRate: 14, MaxRate: 48, BaseRate: 10, NoiseStd: 0.05},
				{Name: "burst", Workload: "raytrace", Count: 2, MinRate: 8, MaxRate: 30, BaseRate: 10,
					MeanLifeTicks: 30, NoiseStd: 0.05},
			},
			Events: []Event{
				{AtTick: 60, Kind: EventFlashCrowd, Class: "burst", Count: 40},
				{AtTick: 140, Kind: EventMassWithdraw, Class: "burst", Fraction: 0.8},
			},
			Budgets: Budgets{MaxFleetRegretFrac: 0.06, MinFleetInBandFrac: 0.80, MaxAppRegretFrac: 0.15},
		},
		{
			// Program phases: work per beat steps through a deterministic
			// program and an event doubles it mid-run, invalidating every
			// demand estimate the controllers have cached.
			Name: "phased", Seed: 13, Ticks: 200, TickSeconds: 0.5,
			Cores: 64, WarmupTicks: 20,
			Classes: []Class{
				{Name: "app", Workload: "volrend", Count: 20, MinRate: 10, MaxRate: 40, BaseRate: 10,
					NoiseStd: 0.05,
					Phases:   []PhaseStep{{AtTick: 50, WorkScale: 1.6}, {AtTick: 110, WorkScale: 0.7}}},
			},
			Events: []Event{
				{AtTick: 150, Kind: EventPhaseShift, Class: "app", Factor: 2},
			},
			Budgets: Budgets{MaxFleetRegretFrac: 0.05, MinFleetInBandFrac: 0.85, MaxAppRegretFrac: 0.10},
		},
		{
			// Two SLO classes fighting over a scarce pool: gold's weight-8
			// priority must buy it the band while bronze is shed.
			Name: "slo-classes", Seed: 17, Ticks: 160, TickSeconds: 0.5,
			Cores: 32, WarmupTicks: 20, Oversubscribe: true,
			Classes: []Class{
				{Name: "gold", Workload: "water", Count: 20, MinRate: 10, MaxRate: 30, Priority: 8, BaseRate: 10, NoiseStd: 0.05},
				{Name: "bronze", Workload: "water", Count: 20, MinRate: 10, MaxRate: 30, BaseRate: 10, NoiseStd: 0.05},
			},
			Budgets: Budgets{MinFleetInBandFrac: 0.40},
		},
		{
			// Goal thrash: the band doubles and reverts every 10 ticks for
			// 80 ticks while the fleet keeps serving.
			Name: "goal-thrash", Seed: 19, Ticks: 200, TickSeconds: 0.5,
			Cores: 64, WarmupTicks: 20,
			Classes: []Class{
				{Name: "app", Workload: "barnes", Count: 24, MinRate: 10, MaxRate: 30, BaseRate: 10, NoiseStd: 0.05},
			},
			Events: []Event{
				{AtTick: 60, Kind: EventGoalThrash, Class: "app", Factor: 2, EveryTicks: 10, UntilTick: 140},
			},
			Budgets: Budgets{MaxFleetRegretFrac: 0.05, MinFleetInBandFrac: 0.80, MaxAppRegretFrac: 0.10},
		},
		{
			// Two crash-restarts mid-scenario: the daemon is killed and
			// recovered from its journal while the fleet keeps beating.
			// Journal-only recovery is byte-identical to an uncrashed run,
			// so the budgets are the steady ones.
			Name: "crash-restart", Seed: 23, Ticks: 160, TickSeconds: 0.5,
			Cores: 64, WarmupTicks: 20,
			Classes: []Class{
				{Name: "app", Workload: "ocean", Count: 20, MinRate: 12, MaxRate: 40, BaseRate: 10, NoiseStd: 0.05},
			},
			Events: []Event{
				{AtTick: 60, Kind: EventCrashRestart},
				{AtTick: 110, Kind: EventCrashRestart},
			},
			Budgets: Budgets{MaxFleetRegretFrac: 0.05, MinFleetInBandFrac: 0.80, MaxAppRegretFrac: 0.10},
		},
		{
			// Multi-chip federation: a memory-heavy fleet spread across two
			// dies by the interference-aware placer, then one die's memory
			// bandwidth collapses to 35% mid-run. The migration policy must
			// walk applications off the saturated die until both dies serve
			// their bands again; with migration disabled (the control the
			// federation test runs) the stranded apps eat the regret budget.
			Name: "federation", Seed: 31, Ticks: 200, TickSeconds: 0.5,
			Cores: 48, WarmupTicks: 40, Oversubscribe: true,
			Chips: 2, ChipMemBWGBps: 30,
			Classes: []Class{
				// BaseRate documents ocean's one-core model heart rate; in
				// chip mode execution comes from the hardware model itself.
				{Name: "mem", Workload: "ocean", Count: 6, MinRate: 22, MaxRate: 40, BaseRate: 13.6},
			},
			Events: []Event{
				{AtTick: 90, Kind: EventChipSaturate, Chip: 0, Factor: 0.35},
			},
			Budgets: Budgets{MaxFleetRegretFrac: 0.10, MinFleetInBandFrac: 0.60, MaxAppRegretFrac: 0.30},
		},
		{
			// An oversubscribed federation filled before its first tick:
			// 72 single-core tenants on three 8-tile dies, three to a tile,
			// under a core pool twice the fleet's tiles. With no contention
			// pass yet every die prices the same, so only a tenant-aware
			// placement tie-break spreads them 24 per die, and only a
			// broker that caps each die's grant at its tiles keeps the
			// managers from planning shares the ledgers refuse. A third of
			// a tile meets every goal; a fleet piled onto die 0 (56 / 8 / 8),
			// or one evenly placed but over-granted, misses most of them.
			Name: "federation-oversub", Seed: 37, Ticks: 160, TickSeconds: 0.5,
			Cores: 48, WarmupTicks: 40, Oversubscribe: true,
			Chips: 3, ChipTiles: 8,
			Classes: []Class{
				// BaseRate documents each workload's one-core model heart rate.
				{Name: "tenant", Workload: "barnes", Count: 48, MinRate: 16, MaxRate: 30, BaseRate: 19.9},
				{Name: "batch", Workload: "water", Count: 24, MinRate: 16, MaxRate: 40, BaseRate: 23.7},
			},
			Budgets: Budgets{MaxFleetRegretFrac: 0.02, MinFleetInBandFrac: 0.95, MaxAppRegretFrac: 0.05},
		},
		{
			// Everything at once: priorities, diurnal churn, a flash crowd
			// landing during a goal thrash, a phase shift, a crash, and a
			// mass withdrawal. The budgets are looser than the single-chaos
			// scenarios'; the hard gate is survival plus byte-identical
			// replay.
			Name: "torture", Seed: 29, Ticks: 300, TickSeconds: 0.5,
			Cores: 64, WarmupTicks: 30, Oversubscribe: true,
			Classes: []Class{
				{Name: "gold", Workload: "water", Count: 12, MinRate: 12, MaxRate: 36, Priority: 4, BaseRate: 10, NoiseStd: 0.08, DistortionAmp: 0.2},
				{Name: "churn", Workload: "raytrace", Count: 6, MinRate: 8, MaxRate: 30, BaseRate: 10,
					ArrivalsPerTick: 0.4, DiurnalAmp: 0.7, DiurnalPeriodTicks: 100, MeanLifeTicks: 40, NoiseStd: 0.1},
				{Name: "phasey", Workload: "volrend", Count: 8, MinRate: 10, MaxRate: 40, BaseRate: 10,
					Phases: []PhaseStep{{AtTick: 80, WorkScale: 1.5}, {AtTick: 200, WorkScale: 0.8}}},
			},
			Events: []Event{
				{AtTick: 70, Kind: EventGoalThrash, Class: "gold", Factor: 1.5, EveryTicks: 12, UntilTick: 150},
				{AtTick: 100, Kind: EventFlashCrowd, Class: "churn", Count: 30},
				{AtTick: 160, Kind: EventCrashRestart},
				{AtTick: 180, Kind: EventPhaseShift, Class: "phasey", Factor: 1.8},
				{AtTick: 240, Kind: EventMassWithdraw, Fraction: 0.3},
			},
			Budgets: Budgets{MaxFleetRegretFrac: 0.08, MinFleetInBandFrac: 0.70, MaxAppRegretFrac: 0.30},
		},
	}
}

// ByName returns the builtin scenario with the given name.
func ByName(name string) (Spec, error) {
	for _, s := range Builtins() {
		if s.Name == name {
			return s, nil
		}
	}
	return Spec{}, fmt.Errorf("scenario: no builtin named %q", name)
}
