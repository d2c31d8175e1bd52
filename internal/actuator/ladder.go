package actuator

import "fmt"

// NewLadder builds a software-only actuator from parallel slices of
// speedup and power multipliers: a monotone "ladder" of settings whose
// Apply records the chosen rung without driving hardware. This is the
// shape of an advisory knob — a serving daemon decides the rung, and the
// remote application (or operator) reads it back through the decision
// interface and actuates on its side. Setting i's declared effect is
// (speedup[i], power[i]); the rung where both are 1 is nominal.
func NewLadder(name string, labels []string, speedup, power []float64) (*Actuator, error) {
	a, err := ladder(name, labels, speedup, power)
	if err != nil {
		return nil, err
	}
	a.Apply = func(int) error { return nil }
	a.Scope = ApplicationScope
	a.current = a.NominalIndex
	if err := a.Validate(); err != nil {
		return nil, err
	}
	return a, nil
}

// ladder builds the settings table NewLadder and FromKnob share: rung i
// is labelled labels[i], carries Value i, and declares the effect
// (speedup[i], power[i]) on the performance and power axes; the last
// rung where both are exactly 1 is nominal. The caller supplies Apply,
// the scope and the starting rung, then validates.
func ladder(name string, labels []string, speedup, power []float64) (*Actuator, error) {
	if len(labels) != len(speedup) || len(labels) != len(power) {
		return nil, fmt.Errorf("actuator %q: ladder slices disagree (%d labels, %d speedups, %d powers)",
			name, len(labels), len(speedup), len(power))
	}
	nominal := -1
	settings := make([]Setting, len(labels))
	for i := range labels {
		settings[i] = Setting{
			Label:  labels[i],
			Value:  i,
			Effect: Effect{Speedup: speedup[i], PowerX: power[i], Distort: 1},
		}
		if speedup[i] == 1 && power[i] == 1 {
			nominal = i
		}
	}
	if nominal < 0 {
		return nil, fmt.Errorf("actuator %q: no nominal rung (speedup and power both 1)", name)
	}
	return &Actuator{
		Name:         name,
		Settings:     settings,
		NominalIndex: nominal,
		Axes:         []Axis{Performance, Power},
	}, nil
}
