package angstrom

import (
	"fmt"
	"math"
)

// This file models the non-traditional sensors of §4.1 — "temperature,
// voltage, battery charge, and energy consumption" — except battery
// charge, which no modelled deployment draws from. They are deployed per
// tile so the runtime can observe variation across the chip and react to
// environmental change (cooling failures).

// Thermal is a first-order RC thermal model for one tile:
//
//	dT/dt = (T_env + P·R_th − T) / τ
//
// Steady state is T_env + P·R_th; τ sets how fast the tile heats/cools.
type Thermal struct {
	EnvC   float64 // ambient, °C
	RthCPW float64 // junction-to-ambient thermal resistance, °C/W
	TauS   float64 // thermal time constant, seconds

	tC float64
}

// NewThermal starts a sensor in thermal equilibrium with the ambient.
func NewThermal(envC, rthCPW, tauS float64) (*Thermal, error) {
	if rthCPW <= 0 || tauS <= 0 {
		return nil, fmt.Errorf("angstrom: non-positive thermal constants")
	}
	return &Thermal{EnvC: envC, RthCPW: rthCPW, TauS: tauS, tC: envC}, nil
}

// Step advances the model by dt seconds at the given tile power.
func (t *Thermal) Step(powerW, dt float64) {
	target := t.EnvC + powerW*t.RthCPW
	// Exact first-order step (stable for any dt).
	alpha := 1 - math.Exp(-dt/t.TauS)
	t.tC += (target - t.tC) * alpha
}

// ReadC returns the current junction temperature in °C.
func (t *Thermal) ReadC() float64 { return t.tC }

// SetEnv models an environmental change (e.g. a cooling failure raising
// the effective ambient).
func (t *Thermal) SetEnv(envC float64) { t.EnvC = envC }

// EnergySensor is a cumulative energy meter (§4.1, following the
// Sandy-Bridge-style energy counters of [31]) for a simulation that
// integrates energy itself. It satisfies heartbeat.EnergyMeter, so an
// application monitor can attach to it. The chip model keeps its own
// accounts: ObserveTiles accumulates each tile's energy in its
// CtrEnergyNJ counter, and a Partition reports the energy attributed to
// its application in Sense().EnergyJ.
type EnergySensor struct {
	joules float64
}

// Add accumulates consumed energy.
func (e *EnergySensor) Add(j float64) { e.joules += j }

// EnergyJoules implements heartbeat.EnergyMeter.
func (e *EnergySensor) EnergyJoules() float64 { return e.joules }

// VoltageSensor reports a tile's current supply voltage; the chip model
// updates it on DVFS transitions.
type VoltageSensor struct {
	volts float64
}

// Set records a new supply point.
func (v *VoltageSensor) Set(volts float64) { v.volts = volts }

// ReadV returns the supply voltage.
func (v *VoltageSensor) ReadV() float64 { return v.volts }
