package server

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"testing"
	"time"
)

// emulatedApp closes the loop the way a remote client would: it reads
// the daemon's latest advisory decision and beats at its base rate times
// the decided speedup.
type emulatedApp struct {
	name string
	base float64 // beats/s at the nominal rung
}

func (e *emulatedApp) beatOneTick(t *testing.T, d *Daemon, dt float64) {
	t.Helper()
	speedup := 1.0
	st, err := d.Status(e.name)
	if err != nil {
		t.Fatal(err)
	}
	if st.Decision != nil {
		dec := st.Decision
		speedup = dec.TargetSpeedup
		if speedup <= 0 {
			speedup = 1
		}
	}
	n := int(math.Round(e.base * speedup * dt))
	if n < 1 {
		n = 1
	}
	if err := d.Beat(e.name, n, 0); err != nil {
		t.Fatal(err)
	}
}

func newAcceleratedDaemon(t *testing.T, cores int) *Daemon {
	t.Helper()
	d, err := NewDaemon(Config{Cores: cores, Accel: 1.0, Period: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// The full ODA loop converges an emulated application onto its goal band
// using only the public daemon surface (enroll, beat, status, tick).
func TestDaemonConvergesToGoal(t *testing.T) {
	d := newAcceleratedDaemon(t, 64)
	// Window larger than one tick's beats so windowed rates span ticks
	// (in accelerated mode a batch shares one timestamp).
	if err := d.Enroll(EnrollRequest{Name: "vid", Workload: "barnes", Window: 2048, MinRate: 240, MaxRate: 260}); err != nil {
		t.Fatal(err)
	}
	app := &emulatedApp{name: "vid", base: 100}
	for i := 0; i < 40; i++ {
		app.beatOneTick(t, d, 1.0)
		d.Tick()
	}
	st, err := d.Status("vid")
	if err != nil {
		t.Fatal(err)
	}
	if st.Decision == nil {
		t.Fatal("no decision after 40 ticks")
	}
	if st.DecisionErr != "" {
		t.Fatalf("decision error: %s", st.DecisionErr)
	}
	if st.Decision.Observed < 200 || st.Decision.Observed > 300 {
		t.Fatalf("observed rate %g nowhere near goal 250", st.Decision.Observed)
	}
	if st.Decision.TargetSpeedup <= 1 {
		t.Fatalf("target speedup %g should exceed 1 for a 2.5x goal", st.Decision.TargetSpeedup)
	}
	if st.Observation.Beats == 0 {
		t.Fatal("no beats observed")
	}
}

// The manager apportions the shared pool by demand: a heavier goal gets
// more cores, allocations stay within the pool, every app keeps >= 1.
func TestDaemonArbitratesCores(t *testing.T) {
	d := newAcceleratedDaemon(t, 32)
	apps := []*emulatedApp{
		{name: "light", base: 100},
		{name: "heavy", base: 100},
	}
	if err := d.Enroll(EnrollRequest{Name: "light", Workload: "barnes", Window: 4096, MinRate: 140, MaxRate: 160}); err != nil {
		t.Fatal(err)
	}
	if err := d.Enroll(EnrollRequest{Name: "heavy", Workload: "barnes", Window: 4096, MinRate: 900, MaxRate: 1100}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 30; i++ {
		for _, a := range apps {
			a.beatOneTick(t, d, 1.0)
		}
		d.Tick()
	}
	light, err := d.Status("light")
	if err != nil {
		t.Fatal(err)
	}
	heavy, err := d.Status("heavy")
	if err != nil {
		t.Fatal(err)
	}
	if light.Cores.Units < 1 || heavy.Cores.Units < 1 {
		t.Fatalf("allocations %d/%d below 1", light.Cores.Units, heavy.Cores.Units)
	}
	if light.Cores.Units+heavy.Cores.Units > 32 {
		t.Fatalf("allocations %d+%d exceed the 32-core pool", light.Cores.Units, heavy.Cores.Units)
	}
	if heavy.Cores.Units <= light.Cores.Units {
		t.Fatalf("heavy (goal 1000) got %d cores, light (goal 150) got %d",
			heavy.Cores.Units, light.Cores.Units)
	}
}

func TestEnrollValidation(t *testing.T) {
	d := newAcceleratedDaemon(t, 8)
	cases := []EnrollRequest{
		{Name: "", MinRate: 10},                       // empty name
		{Name: "a/b", MinRate: 10},                    // path separator
		{Name: " pad", MinRate: 10},                   // would not round-trip
		{Name: "pad\n", MinRate: 10},                  // would not round-trip
		{Name: "ok", MinRate: 0},                      // missing goal
		{Name: "ok", MinRate: 10, MaxRate: 5},         // inverted band
		{Name: "ok", MinRate: 10, Workload: "nosuch"}, // unknown workload
		{Name: "ok", MinRate: 10, Window: 1},          // window too small
	}
	for _, req := range cases {
		if err := d.Enroll(req); err == nil {
			t.Fatalf("enroll %+v accepted", req)
		}
	}
	if err := d.Enroll(EnrollRequest{Name: "ok", MinRate: 10}); err != nil {
		t.Fatal(err)
	}
	if err := d.Enroll(EnrollRequest{Name: "ok", MinRate: 10}); !errors.Is(err, ErrDuplicate) {
		t.Fatalf("duplicate enroll: err = %v, want ErrDuplicate", err)
	}
}

// One request cannot monopolize the daemon: the batch size is bounded.
func TestBeatBatchBounded(t *testing.T) {
	d := newAcceleratedDaemon(t, 8)
	if err := d.Enroll(EnrollRequest{Name: "a", MinRate: 10}); err != nil {
		t.Fatal(err)
	}
	if err := d.Beat("a", MaxBeatBatch+1, 0); err == nil {
		t.Fatal("oversized batch accepted")
	}
	if err := d.Beat("a", 0, 0); err == nil {
		t.Fatal("zero batch accepted")
	}
	if err := d.Beat("a", MaxBeatBatch, 0); err != nil {
		t.Fatal(err)
	}
	if err := d.Beat("nosuch", 1, 0); !errors.Is(err, ErrNotEnrolled) {
		t.Fatalf("unknown app: err = %v, want ErrNotEnrolled", err)
	}
}

// Withdrawing frees both the registry entry and the manager share.
func TestWithdrawFreesPool(t *testing.T) {
	d := newAcceleratedDaemon(t, 4)
	for i := 0; i < 4; i++ {
		if err := d.Enroll(EnrollRequest{Name: fmt.Sprintf("a%d", i), MinRate: 10}); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Enroll(EnrollRequest{Name: "overflow", MinRate: 10}); err == nil {
		t.Fatal("enrolled past the core pool")
	}
	if err := d.Withdraw("a0"); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Status("a0"); !errors.Is(err, ErrNotEnrolled) {
		t.Fatalf("withdrawn app status: %v, want ErrNotEnrolled", err)
	}
	if err := d.Enroll(EnrollRequest{Name: "replacement", MinRate: 10}); err != nil {
		t.Fatalf("pool not freed by withdraw: %v", err)
	}
	if err := d.Withdraw("a0"); err == nil {
		t.Fatal("double withdraw succeeded")
	}
	if err := d.Beat("a0", 1, 0); err == nil {
		t.Fatal("beat accepted for withdrawn app")
	}
}

// The serving surface must be race-clean: the ticking loop runs on a
// fast period while goroutines enroll, beat, read, change goals, and
// withdraw. Run under -race (make test does).
func TestDaemonConcurrentServing(t *testing.T) {
	d, err := NewDaemon(Config{Cores: 256, Period: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	d.Start()
	defer d.Stop()

	const workers = 16
	const beatsEach = 300
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			name := fmt.Sprintf("app-%d", w)
			if err := d.Enroll(EnrollRequest{Name: name, MinRate: 50, MaxRate: 70}); err != nil {
				t.Error(err)
				return
			}
			for i := 0; i < beatsEach; i++ {
				if err := d.Beat(name, 1, 0); err != nil {
					t.Error(err)
					return
				}
				if i%50 == 0 {
					if _, err := d.Status(name); err != nil {
						t.Error(err)
						return
					}
				}
				if i == beatsEach/2 {
					if err := d.SetGoal(name, 80, 100); err != nil {
						t.Error(err)
						return
					}
				}
			}
			if w%4 == 0 {
				if err := d.Withdraw(name); err != nil {
					t.Error(err)
				}
			}
		}(w)
	}
	readers := make(chan struct{})
	var rwg sync.WaitGroup
	for r := 0; r < 4; r++ {
		rwg.Add(1)
		go func() {
			defer rwg.Done()
			for {
				select {
				case <-readers:
					return
				default:
					d.List()
					d.Stats()
				}
			}
		}()
	}
	wg.Wait()
	close(readers)
	rwg.Wait()

	stats := d.Stats()
	if want := uint64(workers * beatsEach); stats.Beats != want {
		t.Fatalf("beats = %d, want %d", stats.Beats, want)
	}
	if stats.Apps != workers-workers/4 {
		t.Fatalf("apps = %d, want %d", stats.Apps, workers-workers/4)
	}
	// The loop must tick alongside the serving surface. The worker storm
	// can finish inside the very first 1ms period on a fast machine, so
	// wait out a bounded grace window instead of asserting instantly.
	deadline := time.Now().Add(5 * time.Second)
	for d.Stats().Ticks == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if ticks := d.Stats().Ticks; ticks == 0 {
		t.Fatal("ODA loop never ticked within 5s")
	}
}

// AtomicClock keeps monotone time under concurrent readers.
func TestAtomicClock(t *testing.T) {
	c := NewAtomicClock(1.5)
	if c.Now() != 1.5 {
		t.Fatalf("start = %g", c.Now())
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			last := 0.0
			for {
				select {
				case <-stop:
					return
				default:
				}
				now := c.Now()
				if now < last {
					t.Error("clock went backwards")
					return
				}
				last = now
			}
		}()
	}
	for i := 0; i < 1000; i++ {
		c.Advance(0.001)
	}
	close(stop)
	wg.Wait()
	if got := c.Now(); math.Abs(got-2.5) > 1e-9 {
		t.Fatalf("end = %g, want 2.5", got)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("negative advance did not panic")
		}
	}()
	c.Advance(-1)
}
