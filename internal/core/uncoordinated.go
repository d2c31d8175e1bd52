package core

import (
	"fmt"

	"angstrom/internal/actuator"
	"angstrom/internal/heartbeat"
	"angstrom/internal/sim"
)

// Uncoordinated models the baseline of §5.2 in which "separate instances
// of the SEEC runtime system control cores, clock speed, and idle cycles
// but do not coordinate with each other" — i.e. what happens when several
// closed adaptive systems run side by side. One full SEEC runtime is
// instantiated per actuator; each observes the same application heartbeats,
// attributes the whole error to itself, and moves only its own knob.
//
// No new mechanism is needed to make this baseline misbehave: each
// sub-runtime's Kalman filter attributes speed changes caused by the
// *other* controllers to its own workload estimate, which is exactly the
// mis-attribution that makes composed closed systems oscillate through
// sub-optimal allocations (§2, §5.2).
type Uncoordinated struct {
	app   string
	space *actuator.Space
	subs  []*Runtime
}

// NewUncoordinated builds one single-knob runtime per actuator in space.
func NewUncoordinated(app string, clock sim.Nower, mon *heartbeat.Monitor, space *actuator.Space, opts Options) (*Uncoordinated, error) {
	if space == nil {
		return nil, fmt.Errorf("core: nil space")
	}
	u := &Uncoordinated{app: app, space: space}
	for _, act := range space.Acts {
		sub, err := newSingleKnob(app, clock, mon, act, opts)
		if err != nil {
			return nil, err
		}
		u.subs = append(u.subs, sub)
	}
	return u, nil
}

func newSingleKnob(app string, clock sim.Nower, mon *heartbeat.Monitor, act *actuator.Actuator, opts Options) (*Runtime, error) {
	sub, err := actuator.NewSpace(act)
	if err != nil {
		return nil, err
	}
	return New(app+"/"+act.Name, clock, mon, sub, opts)
}

// Step runs every sub-runtime's observe-decide phase and merges their
// independent choices into one configuration of the full space. Because
// the controllers cannot coordinate, no cross-knob time-multiplexing is
// possible: each controller contributes the dominant configuration of
// its own schedule.
func (u *Uncoordinated) Step() (actuator.Config, []Decision, error) {
	cfg := make(actuator.Config, len(u.subs))
	decisions := make([]Decision, len(u.subs))
	for i, sub := range u.subs {
		d, err := sub.Step()
		if err != nil {
			return nil, nil, err
		}
		decisions[i] = d
		if d.HiFrac >= 0.5 {
			cfg[i] = d.HiCfg[0]
		} else {
			cfg[i] = d.LoCfg[0]
		}
	}
	return cfg, decisions, nil
}

// Space returns the full (merged) action space.
func (u *Uncoordinated) Space() *actuator.Space { return u.space }
