package main

import (
	"encoding/json"
	"os"
	"strings"
	"testing"
	"time"
)

func TestTailRule(t *testing.T) {
	for _, c := range []struct {
		n       int
		pct     float64
		beyond  int
		p50Rank int // 1-based rank of the median among 1..n
	}{
		{n: 1, pct: 50, beyond: 0, p50Rank: 1},
		{n: 10, pct: 50, beyond: 5, p50Rank: 5},
		{n: 99, pct: 50, beyond: 49, p50Rank: 50},  // p90 would leave 9
		{n: 100, pct: 90, beyond: 10, p50Rank: 50}, // exactly 10 beyond p90
		{n: 999, pct: 90, beyond: 99, p50Rank: 500},
		{n: 1000, pct: 99, beyond: 10, p50Rank: 500},
		{n: 250000, pct: 99, beyond: 2500, p50Rank: 125000}, // the ladder stops at p99
	} {
		// Samples 1..n in reverse, so the value is its own rank.
		xs := make([]float64, c.n)
		for i := range xs {
			xs[i] = float64(c.n - i)
		}
		s := summarize(xs)
		if s.N != c.n || s.TailPct != c.pct || s.Beyond != c.beyond {
			t.Errorf("n=%d: got p%g with %d beyond (N=%d), want p%g with %d beyond", c.n, s.TailPct, s.Beyond, s.N, c.pct, c.beyond)
		}
		if s.P50 != float64(c.p50Rank) {
			t.Errorf("n=%d: median %g, want %d", c.n, s.P50, c.p50Rank)
		}
		if got := float64(c.n) - s.Tail; int(got) != s.Beyond {
			t.Errorf("n=%d: tail %g leaves %g samples beyond, reported %d", c.n, s.Tail, got, s.Beyond)
		}
	}
	if s := summarize(nil); s.N != 0 || s.Tail != 0 {
		t.Errorf("empty: %+v", s)
	}
}

func TestMetricNames(t *testing.T) {
	seen := map[string]bool{}
	for _, m := range append(append([]metricDef{}, endToEnd...), perLayer...) {
		if !validName(m.name) {
			t.Errorf("metric name %q outside [A-Za-z0-9_.-]", m.name)
		}
		if seen[m.name] {
			t.Errorf("metric name %q declared twice", m.name)
		}
		seen[m.name] = true
		if m.better != "lower" && m.better != "higher" {
			t.Errorf("%s: better %q", m.name, m.better)
		}
	}
	for _, bad := range []string{"", "_x", ".x", "a b", "a/b", "ms²", strings.Repeat("a", 65)} {
		if validName(bad) {
			t.Errorf("validName(%q) accepted", bad)
		}
	}
	if !validName(strings.Repeat("a", 64)) {
		t.Error("64-character name rejected")
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json and the harness's declared
// metrics and workloads in step.
func TestBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(workloadOrder) {
		t.Fatalf("%d workloads in BENCHMARK.json, harness has %d", len(doc.Workloads), len(workloadOrder))
	}
	for i, w := range doc.Workloads {
		if w.Name != workloadOrder[i] || workloads[w.Name] == nil || w.Why == "" || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %d: %+v", i, w)
		}
	}
	gate := gated()
	if len(doc.EndToEnd) != len(gate) {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, harness gates %d", len(doc.EndToEnd), len(gate))
	}
	for i, m := range doc.EndToEnd {
		d := gate[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better || m.Bound != d.bound || m.Bound > 0.25 {
			t.Errorf("end_to_end %d: %+v, harness declares %+v", i, m, d)
		}
	}
	if len(doc.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, harness has %d", len(doc.PerLayer), len(perLayer))
	}
	for i, m := range doc.PerLayer {
		d := perLayer[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("per_layer %d: %+v, harness declares %+v", i, m, d)
		}
	}
}

func TestSelfTime(t *testing.T) {
	ms := int64(time.Millisecond)
	parent := span{ID: 1, Name: "p", Start: 0, End: 10 * ms}
	kids := []span{
		{ID: 2, Parent: 1, Name: "k", Start: 1 * ms, End: 3 * ms},
		{ID: 3, Parent: 1, Name: "k", Start: 2 * ms, End: 4 * ms},  // overlaps the first
		{ID: 4, Parent: 1, Name: "k", Start: 9 * ms, End: 12 * ms}, // runs past the parent
		{ID: 5, Parent: 9, Name: "k", Start: 5 * ms, End: 6 * ms},  // someone else's child
	}
	if got := covered(parent, kids[:3]); got != 4*time.Millisecond {
		t.Errorf("covered = %v, want 4ms", got)
	}
	self := selfTimes(append([]span{parent}, kids...), time.Millisecond)
	if got := self["p"]; len(got) != 1 || got[0] != 6 {
		t.Errorf("self time of p = %v, want [6]", got)
	}
	if _, ok := self["k"]; ok {
		t.Error("childless spans reported a self time")
	}
}

// TestSmoke runs every workload at a tiny scale, untraced and traced,
// so the harness cannot rot: every check passes, nothing fails, and
// every declared metric comes out finite.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for _, name := range workloadOrder {
		t.Run(name, func(t *testing.T) {
			for _, traced := range []bool{false, true} {
				o := opts{seed: 7, seconds: 0.6, scratch: t.TempDir(), scale: 0.01}
				if traced {
					o.t = newTracer()
				}
				r, err := workloads[name](o)
				if err != nil {
					t.Fatal(err)
				}
				vals, defs := r.e2e, endToEnd
				if traced {
					for _, m := range endToEnd {
						r.layer["trace.overhead."+m.name] = 0
					}
					vals, defs = r.layer, perLayer
				}
				r.pick(vals, defs) // marks a missing or non-finite metric broken
				if len(r.broken) > 0 || r.failed > 0 || r.attempted == 0 {
					t.Errorf("traced=%v: checks %v, %d of %d operations failed: %v", traced, r.broken, r.failed, r.attempted, r.errs)
				}
			}
		})
	}
}
