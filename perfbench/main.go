// Command perfbench is the angstromd serving benchmark: it runs an
// in-process server.Daemon behind real loopback HTTP and binary-wire
// listeners, drives it only through the daemon's public entry points
// with seeded load, checks the outputs, and prints every end-to-end
// metric (or, with -trace 1, every per-layer metric derived from a
// traced pass plus the tracing overhead). The last line of standard
// output is one JSON object: {"correct", "attempted", "failed",
// "metrics"}.
//
//	bash perfbench/run.sh --workload wire-firehose --seed 1 --seconds 10 --trace 0
//	bash perfbench/run.sh --workload all --seed 1 --seconds 10 --trace 0
//
// See README.md in this directory for the workloads, the metric
// definitions and which layer metric should move which end-to-end one.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// metricDef declares one reported metric.
type metricDef struct {
	name, unit, better string
	// bound, for an end-to-end metric, is the share of the parent's
	// median by which it may worsen before a change is rejected; 0 marks
	// a metric that is printed but not gated.
	bound float64
}

// endToEnd is every end-to-end metric, reported by each workload from
// its untraced pass. The gated ones (bound > 0) form the JSON result and
// BENCHMARK.json's end_to_end list. The others are printed with the
// report but not gated: on the reference host (a shared two-vCPU
// container whose per-thread speed swings by up to 2x within seconds)
// each reached a spread of 0.24-0.70 of its median across ten seeds on
// some workload — at or past the largest bound a gate may use — because
// a tick, a replay, or a request that waited on one, measures whichever
// slow window of the host it met. README.md records the spreads.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"beats_per_s", "beats/s", "higher", 0.25},
	{"beat_ack_p50_ms", "ms", "lower", 0.25},
	{"beat_ack_tail_ms", "ms", "lower", 0},
	{"decision_lag_p50_ms", "ms", "lower", 0.25},
	{"decision_lag_tail_ms", "ms", "lower", 0.25},
	{"tick_p50_ms", "ms", "lower", 0},
	{"tick_tail_ms", "ms", "lower", 0},
	{"status_p50_ms", "ms", "lower", 0},
	{"status_tail_ms", "ms", "lower", 0},
	{"goal_attainment", "ratio", "higher", 0.25},
	{"recovery_s", "s", "lower", 0},
	{"heap_peak_mb", "MB", "lower", 0.25},
}

// gated returns the end-to-end metrics that carry a bound.
func gated() []metricDef {
	var out []metricDef
	for _, m := range endToEnd {
		if m.bound > 0 {
			out = append(out, m)
		}
	}
	return out
}

// perLayer is every per-layer metric, reported by each workload from
// its traced pass (0 where the workload does not load that layer).
// trace.overhead.<e2e> metrics are appended by init.
var perLayer = []metricDef{
	{"server.http.beats.serve_p50_us", "us", "lower", 0},
	{"server.http.beats.serve_tail_us", "us", "lower", 0},
	{"server.http.status.serve_p50_us", "us", "lower", 0},
	{"server.http.status.serve_tail_us", "us", "lower", 0},
	{"server.http.enroll.serve_p50_us", "us", "lower", 0},
	{"server.http.enroll.serve_tail_us", "us", "lower", 0},
	{"server.http.goal.serve_tail_us", "us", "lower", 0},
	{"server.http.client_overhead_p50_us", "us", "lower", 0},
	{"server.http.errors", "count", "lower", 0},
	{"server.wire.frames", "count", "higher", 0},
	{"server.wire.bytes_per_beat", "B/beat", "lower", 0},
	{"server.wire.write_p50_us", "us", "lower", 0},
	{"server.wire.flush_rtt_p50_us", "us", "lower", 0},
	{"server.wire.flush_rtt_tail_us", "us", "lower", 0},
	{"server.wire.acked_ratio", "ratio", "higher", 0},
	{"server.tick.busy_frac", "ratio", "lower", 0},
	{"server.tick.late_tail_ms", "ms", "lower", 0},
	{"server.tick.step_ratio", "ratio", "lower", 0},
	{"server.tick.allocs_per_tick", "count", "lower", 0},
	{"server.tick.alloc_bytes_per_tick", "B", "lower", 0},
	{"server.churn.enroll_tail_us", "us", "lower", 0},
	{"server.churn.withdraw_tail_us", "us", "lower", 0},
	{"heartbeat.ingested_ratio", "ratio", "higher", 0},
	{"heartbeat.shard_skew", "ratio", "lower", 0},
	{"core.goal_fit_frac", "ratio", "higher", 0},
	{"core.demand_units", "units", "lower", 0},
	{"core.granted_units", "units", "higher", 0},
	{"angstrom.die_util_min", "ratio", "higher", 0},
	{"angstrom.die_util_max", "ratio", "lower", 0},
	{"angstrom.mem_rho_max", "ratio", "lower", 0},
	{"angstrom.slowdown_p50", "ratio", "higher", 0},
	{"angstrom.migrations", "count", "lower", 0},
	{"angstrom.ledger_faults", "count", "lower", 0},
	{"journal.write_bytes_per_s", "B/s", "lower", 0},
	{"journal.write_tail_us", "us", "lower", 0},
	{"journal.sync_p50_ms", "ms", "lower", 0},
	{"journal.sync_tail_ms", "ms", "lower", 0},
	{"journal.records_per_sync", "count", "higher", 0},
	{"journal.recover_read_ms", "ms", "lower", 0},
	{"journal.replay_ms", "ms", "lower", 0},
	{"journal.replayed_records", "count", "lower", 0},
	{"go.gc_cycles", "count", "lower", 0},
	{"go.gc_pause_tail_ms", "ms", "lower", 0},
	{"gen.late_tail_ms", "ms", "lower", 0},
}

func init() {
	for _, m := range endToEnd {
		perLayer = append(perLayer, metricDef{"trace.overhead." + m.name, m.unit, m.better, 0})
	}
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is one pass of one workload.
type result struct {
	workload string
	e2e      map[string]float64
	layer    map[string]float64
	// notes say how a value was derived (tail percentile, sample count).
	notes     map[string]string
	attempted int64
	failed    int64
	errs      []string
	// broken lists the correctness checks that failed.
	broken []string
}

func newResult(workload string) *result {
	return &result{workload: workload, e2e: map[string]float64{}, layer: map[string]float64{}, notes: map[string]string{}}
}

// timing stores <prefix>_p50_<unit> (when declared) and
// <prefix>_tail_<unit> from samples already in that unit, into the
// per-layer metrics when layer is set, noting the tail's percentile
// and sample count.
func (r *result) timing(layer bool, prefix, unit string, xs []float64) {
	dst, defs := r.e2e, endToEnd
	if layer {
		dst, defs = r.layer, perLayer
	}
	s := summarize(xs)
	if p50 := prefix + "_p50_" + unit; declared(defs, p50) {
		dst[p50] = s.P50
		r.notes[p50] = fmt.Sprintf("n=%d", s.N)
	}
	if tail := prefix + "_tail_" + unit; declared(defs, tail) {
		dst[tail] = s.Tail
		r.notes[tail] = fmt.Sprintf("p%g of n=%d, %d beyond; p90=%.4g p99=%.4g", s.TailPct, s.N, s.Beyond, s.P90, s.P99)
	}
}

func declared(defs []metricDef, name string) bool {
	for _, m := range defs {
		if m.name == name {
			return true
		}
	}
	return false
}

func (r *result) check(ok bool, format string, args ...any) {
	if !ok {
		r.broken = append(r.broken, fmt.Sprintf(format, args...))
	}
}

// account folds a pass's operation counts into the result.
func (r *result) account(o *ops) {
	r.attempted += o.attempted.Load()
	r.failed += o.failed.Load()
	o.mu.Lock()
	r.errs = append(r.errs, o.errs...)
	o.mu.Unlock()
}

// pick returns defs' values from m, with every declared name present
// and every value finite (a non-finite value marks the result broken).
func (r *result) pick(m map[string]float64, defs []metricDef) map[string]metric {
	out := make(map[string]metric, len(defs))
	for _, d := range defs {
		v, ok := m[d.name]
		if !ok {
			r.check(false, "metric %s not produced", d.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			r.check(false, "metric %s is %v", d.name, v)
			v = 0
		}
		out[d.name] = metric{Value: v, Unit: d.unit}
	}
	return out
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(opts) (*result, error){
	"wire-firehose":   runFirehose,
	"http-fleet":      runHTTPFleet,
	"chip-federation": runFederation,
}

var workloadOrder = []string{"wire-firehose", "http-fleet", "chip-federation"}

// report is the final JSON line.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	workload := flag.String("workload", "", "workload name, or all: "+strings.Join(workloadOrder, ", "))
	seed := flag.Int64("seed", 1, "seed every input is generated from")
	seconds := flag.Float64("seconds", 10, "measured load length per pass")
	trace := flag.Int("trace", 0, "1: also run a traced pass and report per-layer metrics")
	out := flag.String("out", ".bench_build/perfbench", "directory for scratch data and span dumps")
	flag.Parse()

	names := []string{*workload}
	if *workload == "all" {
		names = workloadOrder
	}
	for _, n := range names {
		if workloads[n] == nil {
			fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want one of %s, or all)\n", n, strings.Join(workloadOrder, ", "))
			os.Exit(2)
		}
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: -seconds must be positive and -trace 0 or 1")
		os.Exit(2)
	}
	fmt.Println(hostLine())

	final := report{Correct: true, Metrics: map[string]metric{}}
	for _, n := range names {
		rep, err := runOne(n, *seed, *seconds, *trace == 1, *out)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", n, err)
			os.Exit(1)
		}
		final.Correct = final.Correct && rep.Correct
		final.Attempted += rep.Attempted
		final.Failed += rep.Failed
		if len(names) == 1 {
			final.Metrics = rep.Metrics
			continue
		}
		line, _ := json.Marshal(rep)
		fmt.Printf("%s %s\n", n, line)
		for k, v := range rep.Metrics {
			final.Metrics[n+"."+k] = v
		}
	}
	line, err := json.Marshal(final)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: encode result: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !final.Correct {
		os.Exit(1)
	}
}

// runOne runs one workload — the untraced pass, then with trace the
// traced pass — prints its report lines and returns its JSON result.
func runOne(name string, seed int64, seconds float64, trace bool, out string) (report, error) {
	scratch := filepath.Join(out, fmt.Sprintf("run-%s-%d-%d", name, seed, os.Getpid()))
	if err := os.MkdirAll(scratch, 0o755); err != nil {
		return report{}, err
	}
	defer os.RemoveAll(scratch)
	fmt.Printf("# workload=%s seed=%d seconds=%g trace=%v\n", name, seed, seconds, trace)

	o := opts{seed: seed, seconds: seconds, scratch: scratch, scale: 1}
	plain, err := workloads[name](o)
	if err != nil {
		return report{}, err
	}
	all := plain.pick(plain.e2e, endToEnd) // marks a missing or non-finite metric broken
	metrics := map[string]metric{}
	for _, m := range gated() {
		metrics[m.name] = all[m.name]
	}
	printResult(plain, plain.e2e, endToEnd)
	rep := report{
		Correct:   len(plain.broken) == 0 && plain.failed == 0,
		Attempted: plain.attempted,
		Failed:    plain.failed,
		Metrics:   metrics,
	}
	if !trace {
		return rep, nil
	}

	runtime.GC()
	o.t = newTracer()
	o.scratch = filepath.Join(scratch, "traced")
	traced, err := workloads[name](o)
	if err != nil {
		return report{}, err
	}
	for _, m := range endToEnd {
		traced.layer["trace.overhead."+m.name] = traced.e2e[m.name] - plain.e2e[m.name]
	}
	metrics = traced.pick(traced.layer, perLayer)
	printResult(traced, traced.layer, perLayer)
	path := filepath.Join(out, "trace-"+name+".jsonl")
	if err := o.t.write(path); err != nil {
		return report{}, fmt.Errorf("write spans: %w", err)
	}
	fmt.Printf("# spans: %d written to %s\n", len(o.t.all()), path)
	return report{
		Correct:   rep.Correct && len(traced.broken) == 0 && traced.failed == 0,
		Attempted: plain.attempted + traced.attempted,
		Failed:    plain.failed + traced.failed,
		Metrics:   metrics,
	}, nil
}

// printResult writes one line per metric, then the failure share and
// any failed check.
func printResult(r *result, vals map[string]float64, defs []metricDef) {
	for _, d := range defs {
		note := r.notes[d.name]
		if note != "" {
			note = "  (" + note + ")"
		}
		fmt.Printf("%s %-36s %14.6g %s%s\n", r.workload, d.name, vals[d.name], d.unit, note)
	}
	share := 0.0
	if r.attempted > 0 {
		share = float64(r.failed) / float64(r.attempted)
	}
	fmt.Printf("# %s failed %d of %d operations (%.4f%%)\n", r.workload, r.failed, r.attempted, 100*share)
	for _, e := range r.errs {
		fmt.Printf("# %s error: %s\n", r.workload, e)
	}
	sort.Strings(r.broken)
	for _, b := range r.broken {
		fmt.Printf("# %s CHECK FAILED: %s\n", r.workload, b)
	}
}

// hostLine fingerprints the machine: results compare only between runs
// on the same host.
func hostLine() string {
	cpu := "unknown"
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, l := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(l, ":"); ok && strings.TrimSpace(k) == "model name" {
				cpu = strings.TrimSpace(v)
				break
			}
		}
	}
	return fmt.Sprintf("# host cpu=%q nproc=%d gomaxprocs=%d go=%s %s/%s",
		cpu, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH)
}
