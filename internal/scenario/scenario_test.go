package scenario

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"testing"
)

// TestScenarioBudgets is the scenario tier's main gate: every builtin
// must meet its own regret budgets on the default daemon layout.
func TestScenarioBudgets(t *testing.T) {
	for _, spec := range Builtins() {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			t.Parallel()
			res, err := Run(spec, Options{})
			if err != nil {
				t.Fatalf("run: %v", err)
			}
			if err := res.Scorecard.CheckBudgets(spec.Budgets); err != nil {
				t.Fatalf("budgets: %v", err)
			}
			if res.Scorecard.Beats == 0 || res.Scorecard.Decisions == 0 {
				t.Fatalf("scenario drove no traffic: %+v", res.Scorecard)
			}
		})
	}
}

// TestScenarioReplayByteIdentical is the determinism gate: a fixed
// (spec, seed) must produce the same transcript bytes on every shard
// and tick-worker layout, including through flash crowds, priority
// classes, and crash-restart recovery.
func TestScenarioReplayByteIdentical(t *testing.T) {
	layouts := []Options{
		{Shards: 1, TickWorkers: 1},
		{Shards: 4, TickWorkers: 3},
		{Shards: 8, TickWorkers: 2},
	}
	for _, name := range []string{"flash-crowd", "slo-classes", "crash-restart", "torture", "federation", "federation-oversub"} {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			spec, err := ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			var want *Result
			for _, opt := range layouts {
				res, err := Run(spec, opt)
				if err != nil {
					t.Fatalf("layout %+v: %v", opt, err)
				}
				if want == nil {
					want = res
					continue
				}
				if !bytes.Equal(res.Transcript, want.Transcript) {
					t.Fatalf("layout %+v transcript diverges:\n%s", opt,
						firstDiff(want.Transcript, res.Transcript))
				}
				if res.Scorecard.TranscriptSHA256 != want.Scorecard.TranscriptSHA256 {
					t.Fatalf("layout %+v hash %s != %s", opt,
						res.Scorecard.TranscriptSHA256, want.Scorecard.TranscriptSHA256)
				}
			}
		})
	}
}

// firstDiff locates the first line where two transcripts diverge.
func firstDiff(want, got []byte) string {
	w := strings.Split(string(want), "\n")
	g := strings.Split(string(got), "\n")
	for i := 0; i < len(w) && i < len(g); i++ {
		if w[i] != g[i] {
			return fmt.Sprintf("line %d:\n  want: %s\n  got:  %s", i+1, w[i], g[i])
		}
	}
	return "transcripts are prefixes of each other"
}

// TestScenarioSameSeedSameScore pins that rerunning a spec reproduces
// the full scorecard, not just the transcript.
func TestScenarioSameSeedSameScore(t *testing.T) {
	spec, err := ByName("diurnal")
	if err != nil {
		t.Fatal(err)
	}
	a, err := Run(spec, Options{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(spec, Options{Shards: 3, TickWorkers: 2})
	if err != nil {
		t.Fatal(err)
	}
	ja, _ := json.Marshal(a.Scorecard)
	jb, _ := json.Marshal(b.Scorecard)
	if !bytes.Equal(ja, jb) {
		t.Fatalf("scorecards diverge:\n%s\n%s", ja, jb)
	}
}

// TestScenarioSeedChangesTranscript guards against the harness
// accidentally ignoring the seed (a constant transcript would make the
// replay gate vacuous).
func TestScenarioSeedChangesTranscript(t *testing.T) {
	spec, err := ByName("diurnal")
	if err != nil {
		t.Fatal(err)
	}
	a, err := Run(spec, Options{})
	if err != nil {
		t.Fatal(err)
	}
	spec.Seed++
	b, err := Run(spec, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(a.Transcript, b.Transcript) {
		t.Fatal("different seeds produced identical transcripts")
	}
}

// TestScenarioPriorityClasses asserts the slo-classes outcome by
// class: gold's weight must buy it the band while bronze starves — if
// both classes land in the middle, priority plumbing is broken.
func TestScenarioPriorityClasses(t *testing.T) {
	spec, err := ByName("slo-classes")
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(spec, Options{})
	if err != nil {
		t.Fatal(err)
	}
	inBand := map[string]float64{}
	live := map[string]float64{}
	for i := range res.Scorecard.Apps {
		a := &res.Scorecard.Apps[i]
		inBand[a.Class] += a.InBandFrac * a.LiveSeconds
		live[a.Class] += a.LiveSeconds
	}
	gold := inBand["gold"] / live["gold"]
	bronze := inBand["bronze"] / live["bronze"]
	if gold < 0.8 {
		t.Fatalf("gold in-band %.3f < 0.8 — priority not honored", gold)
	}
	if bronze > gold/2 {
		t.Fatalf("bronze in-band %.3f not starved relative to gold %.3f", bronze, gold)
	}
}

// TestScenarioCrashRestartRecoversFleet pins that the crash-restart
// scenario actually crashed and that recovery kept the fleet serving
// with steady-state quality.
func TestScenarioCrashRestartRecoversFleet(t *testing.T) {
	spec, err := ByName("crash-restart")
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(spec, Options{Shards: 4, TickWorkers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Scorecard.Crashes != 2 {
		t.Fatalf("crashes = %d, want 2", res.Scorecard.Crashes)
	}
	if err := res.Scorecard.CheckBudgets(spec.Budgets); err != nil {
		t.Fatalf("recovery degraded service: %v", err)
	}
}

// TestScenarioFederationMigrationRescues is the federation gate: when
// one die's memory bandwidth collapses, live migration must walk
// applications off it until the fleet serves its bands again. The
// control run — same spec, migration disabled — must visibly strand
// the saturated die's tenants, or the gate proves nothing.
func TestScenarioFederationMigrationRescues(t *testing.T) {
	spec, err := ByName("federation")
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(spec, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Scorecard.CheckBudgets(spec.Budgets); err != nil {
		t.Fatalf("federation budgets: %v", err)
	}
	if res.Scorecard.Migrations == 0 {
		t.Fatal("saturating a die caused no migrations")
	}

	control := spec
	control.MigrateSlowdown = -1 // migration disabled: the stranded-fleet control
	ctl, err := Run(control, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if ctl.Scorecard.Migrations != 0 {
		t.Fatalf("control migrated %d times with migration disabled", ctl.Scorecard.Migrations)
	}
	if ctl.Scorecard.FleetRegretFrac < 2*res.Scorecard.FleetRegretFrac {
		t.Fatalf("control regret %.4f not clearly worse than migrated %.4f — saturation isn't biting",
			ctl.Scorecard.FleetRegretFrac, res.Scorecard.FleetRegretFrac)
	}
	if ctl.Scorecard.FleetInBandFrac > res.Scorecard.FleetInBandFrac-0.2 {
		t.Fatalf("control in-band %.4f too close to migrated %.4f",
			ctl.Scorecard.FleetInBandFrac, res.Scorecard.FleetInBandFrac)
	}
}

// TestCrashRestartRequiresJournal: the chaos host refuses to fake a
// crash when the daemon has no journal to recover from.
func TestCrashRestartRequiresJournal(t *testing.T) {
	spec, err := ByName("steady")
	if err != nil {
		t.Fatal(err)
	}
	h, err := NewDaemonHost(spec, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	if _, err := h.CrashRestart(); err == nil {
		t.Fatal("CrashRestart on a journal-less host succeeded")
	}
}

// TestBuiltinsValidateAndRoundTrip: every builtin passes its own
// validation and survives a JSON encode/decode round trip unchanged —
// the builtins double as documentation of the spec format.
func TestBuiltinsValidateAndRoundTrip(t *testing.T) {
	seen := map[string]bool{}
	for _, spec := range Builtins() {
		if err := spec.Validate(); err != nil {
			t.Fatalf("builtin %s invalid: %v", spec.Name, err)
		}
		if seen[spec.Name] {
			t.Fatalf("duplicate builtin name %q", spec.Name)
		}
		seen[spec.Name] = true
		data, err := json.Marshal(spec)
		if err != nil {
			t.Fatal(err)
		}
		back, err := DecodeSpec(data)
		if err != nil {
			t.Fatalf("builtin %s does not round-trip: %v", spec.Name, err)
		}
		again, err := json.Marshal(back)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(data, again) {
			t.Fatalf("builtin %s round trip changed:\n%s\n%s", spec.Name, data, again)
		}
	}
	if _, err := ByName("no-such-scenario"); err == nil {
		t.Fatal("ByName on unknown scenario succeeded")
	}
}

// TestValidateRejectsBadSpecs covers the decoder/validator error paths
// the fuzz target relies on.
func TestValidateRejectsBadSpecs(t *testing.T) {
	base := func() Spec {
		s, err := ByName("steady")
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	cases := map[string]func(*Spec){
		"empty name":        func(s *Spec) { s.Name = "" },
		"name with slash":   func(s *Spec) { s.Name = "a/b" },
		"zero ticks":        func(s *Spec) { s.Ticks = 0 },
		"huge ticks":        func(s *Spec) { s.Ticks = maxTicks + 1 },
		"nan tick seconds":  func(s *Spec) { s.TickSeconds = nan() },
		"zero cores":        func(s *Spec) { s.Cores = 0 },
		"warmup past end":   func(s *Spec) { s.WarmupTicks = s.Ticks },
		"no classes":        func(s *Spec) { s.Classes = nil },
		"empty fleet":       func(s *Spec) { s.Classes[0].Count = 0 },
		"duplicate class":   func(s *Spec) { s.Classes = append(s.Classes, s.Classes[0]) },
		"unknown workload":  func(s *Spec) { s.Classes[0].Workload = "doom" },
		"negative min rate": func(s *Spec) { s.Classes[0].MinRate = -1 },
		"nan min rate":      func(s *Spec) { s.Classes[0].MinRate = nan() },
		"inverted band":     func(s *Spec) { s.Classes[0].MaxRate = s.Classes[0].MinRate / 2 },
		"negative priority": func(s *Spec) { s.Classes[0].Priority = -2 },
		"nan base rate":     func(s *Spec) { s.Classes[0].BaseRate = nan() },
		"negative arrivals": func(s *Spec) { s.Classes[0].ArrivalsPerTick = -0.5 },
		"amp without period": func(s *Spec) {
			s.Classes[0].DiurnalAmp = 0.5
			s.Classes[0].DiurnalPeriodTicks = 0
		},
		"amp of one":      func(s *Spec) { s.Classes[0].DiurnalAmp = 1 },
		"noise above one": func(s *Spec) { s.Classes[0].NoiseStd = 1.5 },
		"unordered phases": func(s *Spec) {
			s.Classes[0].Phases = []PhaseStep{{AtTick: 30, WorkScale: 2}, {AtTick: 10, WorkScale: 1}}
		},
		"phase at end": func(s *Spec) {
			s.Classes[0].Phases = []PhaseStep{{AtTick: s.Ticks, WorkScale: 2}}
		},
		"phase scale zero": func(s *Spec) {
			s.Classes[0].Phases = []PhaseStep{{AtTick: 10, WorkScale: 0}}
		},
		"unknown event kind": func(s *Spec) {
			s.Events = []Event{{AtTick: 5, Kind: "meteor"}}
		},
		"event for unknown class": func(s *Spec) {
			s.Events = []Event{{AtTick: 5, Kind: EventFlashCrowd, Class: "ghost", Count: 3}}
		},
		"events out of order": func(s *Spec) {
			s.Events = []Event{
				{AtTick: 50, Kind: EventCrashRestart},
				{AtTick: 10, Kind: EventCrashRestart},
			}
		},
		"flash count zero": func(s *Spec) {
			s.Events = []Event{{AtTick: 5, Kind: EventFlashCrowd, Class: "web"}}
		},
		"withdraw fraction above one": func(s *Spec) {
			s.Events = []Event{{AtTick: 5, Kind: EventMassWithdraw, Fraction: 1.5}}
		},
		"thrash without cadence": func(s *Spec) {
			s.Events = []Event{{AtTick: 5, Kind: EventGoalThrash, Class: "web", Factor: 2, UntilTick: 20}}
		},
		"thrash window inverted": func(s *Spec) {
			s.Events = []Event{{AtTick: 5, Kind: EventGoalThrash, Class: "web", Factor: 2, EveryTicks: 2, UntilTick: 5}}
		},
		"nan budget":        func(s *Spec) { s.Budgets.MaxFleetRegretFrac = nan() },
		"negative chips":    func(s *Spec) { s.Chips = -1 },
		"too many chips":    func(s *Spec) { s.Chips = maxChips + 1 },
		"cores below chips": func(s *Spec) { s.Chips = s.Cores + 1 },
		"tiles without chips": func(s *Spec) {
			s.ChipTiles = 16
		},
		"bandwidth without chips": func(s *Spec) {
			s.ChipMemBWGBps = 30
		},
		"migrate slowdown without chips": func(s *Spec) {
			s.MigrateSlowdown = -1
		},
		"migrate slowdown of one": func(s *Spec) {
			s.Chips = 2
			s.MigrateSlowdown = 1
		},
		"nan chip bandwidth": func(s *Spec) {
			s.Chips = 2
			s.ChipMemBWGBps = nan()
		},
		"chip_saturate without chips": func(s *Spec) {
			s.Events = []Event{{AtTick: 5, Kind: EventChipSaturate, Factor: 0.5}}
		},
		"chip_saturate chip out of range": func(s *Spec) {
			s.Chips = 2
			s.Events = []Event{{AtTick: 5, Kind: EventChipSaturate, Chip: 2, Factor: 0.5}}
		},
		"chip_saturate factor above one": func(s *Spec) {
			s.Chips = 2
			s.Events = []Event{{AtTick: 5, Kind: EventChipSaturate, Chip: 0, Factor: 1.5}}
		},
		"chip_saturate factor zero": func(s *Spec) {
			s.Chips = 2
			s.Events = []Event{{AtTick: 5, Kind: EventChipSaturate, Chip: 0}}
		},
	}
	for name, mutate := range cases {
		s := base()
		mutate(&s)
		if err := s.Validate(); err == nil {
			t.Errorf("%s: Validate accepted the spec", name)
		}
	}
}

func nan() float64 {
	var zero float64
	return zero / zero
}

// TestDecodeSpecRejectsMalformed covers the decode-layer guards on top
// of validation: unknown fields and trailing data.
func TestDecodeSpecRejectsMalformed(t *testing.T) {
	spec, err := ByName("steady")
	if err != nil {
		t.Fatal(err)
	}
	good, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeSpec(good); err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}
	for name, data := range map[string][]byte{
		"empty":         nil,
		"not json":      []byte("ticks: 5"),
		"unknown field": []byte(`{"name":"x","ticks":1,"tick_seconds":1,"cores":1,"classes":[],"bogus":1}`),
		"trailing data": append(append([]byte{}, good...), []byte(" {}")...),
	} {
		if _, err := DecodeSpec(data); err == nil {
			t.Errorf("%s: DecodeSpec accepted malformed input", name)
		}
	}
}

// TestCheckBudgets exercises each gate direction.
func TestCheckBudgets(t *testing.T) {
	sc := Scorecard{
		Scenario:        "x",
		FleetRegretFrac: 0.2, FleetInBandFrac: 0.5,
		WorstApp: "a", WorstRegretFrac: 0.4,
	}
	if err := sc.CheckBudgets(Budgets{}); err != nil {
		t.Fatalf("ungated budgets failed: %v", err)
	}
	if err := sc.CheckBudgets(Budgets{MaxFleetRegretFrac: 0.3, MinFleetInBandFrac: 0.4, MaxAppRegretFrac: 0.5}); err != nil {
		t.Fatalf("satisfied budgets failed: %v", err)
	}
	err := sc.CheckBudgets(Budgets{MaxFleetRegretFrac: 0.1, MinFleetInBandFrac: 0.6, MaxAppRegretFrac: 0.3})
	if err == nil {
		t.Fatal("violated budgets passed")
	}
	for _, want := range []string{"fleet regret", "fleet in-band", "worst app"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q missing %q", err, want)
		}
	}
}
