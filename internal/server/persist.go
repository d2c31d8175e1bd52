package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"sort"
	"sync/atomic"
	"time"

	"angstrom/internal/angstrom"
	"angstrom/internal/core"
	"angstrom/internal/heartbeat"
	"angstrom/internal/journal"
	"angstrom/internal/sim"
	"angstrom/internal/workload"
)

// This file is the daemon's durability layer: every control-plane
// mutation (enroll, withdraw, goal change, decision epoch) is written
// ahead to an internal/journal WAL, and the directory is periodically
// compacted into an atomic snapshot. Recovery is replay: the journal
// records each mutation with the daemon-clock time it executed at, and
// boot re-executes the tail through the same public entry points under
// a settable replay clock — so the restored directory, tile ledger, and
// contention state are rebuilt by the exact code paths that built them
// live, and byte-identity falls out of the daemon's tick determinism
// rather than from serializing controller internals.
//
// Two recovery contracts, by configuration:
//
//   - Journal-only (SnapshotEvery < 0): the full history replays from
//     genesis. The restored daemon is byte-identical to one that never
//     crashed — the recovery-determinism tests pin this.
//   - Snapshot + tail (the default): membership, goals, chip
//     configurations and time shares, clock, and counters restore
//     exactly (the ledger re-sums to the live value — zero faults);
//     controller learning (Kalman/RLS estimates, monitor windows) and
//     chip execution phase restore fresh and reconverge within a few
//     ticks, the same way they converged at first enrollment.
//
// The journal records a linearization of concurrent mutations; replay
// applies them in that order. Beats are data plane: they are appended
// asynchronously (group commit makes them durable within JournalFlush)
// and still accepted in degraded mode, when control mutations are
// refused with ErrDegraded.

// ErrDegraded marks a daemon whose journal has failed: serving and
// observation continue, but mutations are refused (HTTP 503) so no
// state change can outlive what the journal can no longer record.
var ErrDegraded = errors.New("journal degraded")

// Journal record operations.
const (
	opEnroll    = "enroll"
	opWithdraw  = "withdraw"
	opGoal      = "goal"
	opBeat      = "beat"
	opBeatTS    = "beat_ts"
	opTick      = "tick"
	opMigrate   = "migrate"    // move one app's partition between dies
	opChipScale = "chip_scale" // derate one die's memory bandwidth
)

// record is one journaled mutation. T is the daemon-clock time the
// mutation executed at; replay re-executes under a clock set to it.
type record struct {
	Op         string         `json:"op"`
	T          sim.Time       `json:"t"`
	Name       string         `json:"name,omitempty"`
	Enroll     *EnrollRequest `json:"enroll,omitempty"`
	MinRate    float64        `json:"min_rate,omitempty"`
	MaxRate    float64        `json:"max_rate,omitempty"`
	Count      int            `json:"count,omitempty"`
	Distortion float64        `json:"distortion,omitempty"`
	Timestamps []float64      `json:"timestamps,omitempty"`
	Evict      bool           `json:"evict,omitempty"`
	// Chip is the target die of an opMigrate / opChipScale record; Scale
	// is opChipScale's bandwidth factor.
	Chip  int     `json:"chip,omitempty"`
	Scale float64 `json:"scale,omitempty"`
}

// snapImage is a snapshot's payload: the compacted prefix of the
// journal. Apps are stored in enrollment order — the order the manager
// and the chip's contention pass iterate in — so restoring them
// re-enrolls the fleet exactly as it was built.
type snapImage struct {
	Seq        uint64   `json:"seq"`
	Clock      sim.Time `json:"clock"`
	Ticks      uint64   `json:"ticks"`
	Beats      uint64   `json:"beats"`
	Decisions  uint64   `json:"decisions"`
	Evicted    uint64   `json:"evicted"`
	Migrations uint64   `json:"migrations,omitempty"`
	// LastMigrate is when the most recent inter-die move applied (zero
	// if never): restores must resume the migration scan's settle window
	// exactly where the imaged daemon left it.
	LastMigrate sim.Time `json:"last_migrate,omitempty"`
	OvercommitW float64  `json:"overcommit_w,omitempty"`
	// ChipScales is each die's bandwidth derating (absent when every die
	// is nominal; a shorter slice leaves the remaining dies at 1).
	ChipScales []float64 `json:"chip_scales,omitempty"`
	// LoadAvgMem/LoadAvgNoC are the per-die smoothed offered
	// utilizations the migration scan prices (absent for advisory
	// daemons); a restore resumes the EWMAs in place so post-restore
	// scans see what the imaged daemon saw.
	LoadAvgMem []float64 `json:"load_avg_mem,omitempty"`
	LoadAvgNoC []float64 `json:"load_avg_noc,omitempty"`
	Apps       []snapApp `json:"apps"`
}

type snapApp struct {
	Name     string  `json:"name"`
	Workload string  `json:"workload"`
	Window   int     `json:"window"`
	MinRate  float64 `json:"min_rate"`
	MaxRate  float64 `json:"max_rate,omitempty"`
	// Priority is the declared water-fill weight (0 = default 1).
	Priority   float64  `json:"priority,omitempty"`
	EnrolledAt sim.Time `json:"enrolled_at"`
	// MigratedAt is when the app last moved between dies (zero if
	// never); restores must resume its migration cooldown in place.
	MigratedAt sim.Time `json:"migrated_at,omitempty"`
	// The manager's last allocation view (status continuity until the
	// first post-restore tick re-prices the fleet).
	Units      int     `json:"units"`
	Demand     float64 `json:"demand,omitempty"`
	AllocShare float64 `json:"alloc_share,omitempty"`
	GoalFit    bool    `json:"goal_fit,omitempty"`
	// Chip partition placement, nil for advisory apps. Restoring each
	// partition at its recorded configuration and time share re-sums
	// the tile ledger to its pre-crash value exactly.
	Chip *snapChip `json:"chip,omitempty"`
}

type snapChip struct {
	// Chip is the die index the partition lives on (omitted for die 0,
	// so single-chip snapshots are unchanged on the wire).
	Chip    int     `json:"chip,omitempty"`
	Cores   int     `json:"cores"`
	CacheKB int     `json:"cache_kb"`
	VF      int     `json:"vf"`
	Share   float64 `json:"share"`
}

// durability is the daemon's journal state (nil without -data-dir).
type durability struct {
	fs        journal.FS
	dir       string
	w         *journal.Writer
	snapEvery time.Duration // <= 0: periodic snapshots disabled

	// replaying suppresses journaling while boot replays the tail
	// through the public mutation paths (single-goroutine phase).
	replaying bool

	degraded    atomic.Bool
	degradedErr atomic.Value // string
	restored    atomic.Bool
	snapSeq     atomic.Uint64

	// lastSnap is touched only by the tick goroutine (maybeSnapshot)
	// and Close, which runs after the loop has stopped.
	lastSnap time.Time

	// Recovery accounting for RecoveryInfo.
	restoredApps    int
	replayedRecords int
	badRecords      int
	truncatedBytes  int
	droppedSegments []string
}

func (jd *durability) reason() string {
	if s, ok := jd.degradedErr.Load().(string); ok {
		return s
	}
	return ""
}

// JournalStats is the durability slice of /v1/stats.
type JournalStats struct {
	// Records is the sequence number of the last appended record.
	Records uint64 `json:"records"`
	// SnapshotSeq is the newest durable snapshot's compaction point (0
	// before the first snapshot).
	SnapshotSeq uint64 `json:"snapshot_seq,omitempty"`
	// Degraded reports read-only journal-degraded mode; Error is the
	// failure that latched it.
	Degraded bool   `json:"degraded,omitempty"`
	Error    string `json:"error,omitempty"`
}

// RecoveryInfo summarizes what boot restored from the data directory.
type RecoveryInfo struct {
	Apps            int      // applications restored
	SnapshotSeq     uint64   // compaction point restored from (0 = genesis)
	ReplayedRecords int      // journal-tail records re-executed
	BadRecords      int      // checksum-valid records that failed to decode
	TruncatedBytes  int      // torn-tail bytes repaired away
	DroppedSegments []string // segments beyond a mid-chain corruption
}

// RecoveryInfo reports the last boot's restore summary (zero without a
// data directory).
func (d *Daemon) RecoveryInfo() RecoveryInfo {
	if d.jd == nil {
		return RecoveryInfo{}
	}
	return RecoveryInfo{
		Apps:            d.jd.restoredApps,
		SnapshotSeq:     d.jd.snapSeq.Load(),
		ReplayedRecords: d.jd.replayedRecords,
		BadRecords:      d.jd.badRecords,
		TruncatedBytes:  d.jd.truncatedBytes,
		DroppedSegments: d.jd.droppedSegments,
	}
}

// Ready reports whether the daemon can accept mutations: true without a
// data directory, and with one, once the journal is restored and
// healthy. /readyz gates on it.
func (d *Daemon) Ready() (bool, string) {
	jd := d.jd
	if jd == nil {
		return true, ""
	}
	if !jd.restored.Load() {
		return false, "restoring from journal"
	}
	if jd.degraded.Load() {
		return false, "journal degraded: " + jd.reason()
	}
	return true, ""
}

// degrade latches the daemon into journal-degraded mode (first failure
// wins). Reached from failed commits and from the journal's background
// flusher via Options.OnError.
func (d *Daemon) degrade(err error) {
	jd := d.jd
	if jd == nil || jd.replaying {
		return
	}
	if jd.degraded.CompareAndSwap(false, true) {
		jd.degradedErr.Store(err.Error())
	}
}

// journalCommit writes rec ahead of the mutation it describes and
// blocks until it is durable (group commit amortizes concurrent
// callers). The caller must not have mutated state yet: on failure the
// daemon degrades and the mutation is refused, so the journal never
// trails the directory.
func (d *Daemon) journalCommit(rec record) error {
	jd := d.jd
	if jd == nil || jd.replaying || jd.w == nil {
		return nil
	}
	if jd.degraded.Load() {
		return fmt.Errorf("server: %w: %s", ErrDegraded, jd.reason())
	}
	payload, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("server: encode journal record: %w", err)
	}
	if _, err := jd.w.Commit(payload); err != nil {
		d.degrade(err)
		return fmt.Errorf("server: %w: %v", ErrDegraded, err)
	}
	return nil
}

// journalAppend buffers rec without waiting for durability — the
// data-plane path (beats, tick records): no fsync, no I/O, durable
// within JournalFlush. Failures latch through the writer's OnError;
// in degraded mode the record is dropped and serving continues.
func (d *Daemon) journalAppend(rec record) {
	jd := d.jd
	if jd == nil || jd.replaying || jd.w == nil || jd.degraded.Load() {
		return
	}
	payload, err := json.Marshal(rec)
	if err != nil {
		return
	}
	_, _ = jd.w.Append(payload)
}

// openJournal recovers cfg.DataDir and replays it into the daemon, then
// opens the writer the serving phase appends to. Called once from
// NewDaemon, before the daemon is visible to any other goroutine.
func (d *Daemon) openJournal() error {
	jfs := d.cfg.FS
	if jfs == nil {
		jfs = journal.OS()
	}
	st, err := journal.Recover(jfs, d.cfg.DataDir)
	if err != nil {
		return err
	}
	snapEvery := d.cfg.SnapshotEvery
	if snapEvery == 0 {
		snapEvery = 30 * time.Second
	}
	jd := &durability{fs: jfs, dir: d.cfg.DataDir, snapEvery: snapEvery, lastSnap: time.Now()}
	jd.snapSeq.Store(st.SnapshotSeq)
	jd.truncatedBytes = st.TruncatedBytes
	jd.droppedSegments = st.DroppedSegments
	d.jd = jd
	if err = d.restore(st); err != nil {
		return err
	}
	flush := d.cfg.JournalFlush
	if flush == 0 {
		flush = 100 * time.Millisecond
	}
	if flush < 0 {
		flush = 0 // tests flush explicitly
	}
	jd.w, err = journal.NewWriter(jfs, d.cfg.DataDir, st.NextSeq, journal.Options{
		FlushEvery: flush,
		OnError:    d.degrade,
		BeforeSync: d.cfg.journalBeforeSync,
	})
	if err != nil {
		return err
	}
	jd.restored.Store(true)
	return nil
}

// restore rebuilds the daemon from a recovered journal state: install
// the snapshot image (if any), then re-execute the record tail through
// the public mutation paths under a settable replay clock. When replay
// finishes, the serving clock is swapped in at the recovered timeline's
// frontier so time continues instead of rewinding.
//
// restore is the root of the replay scope: everything it reaches must
// be deterministic and every mutation it applies is covered by the
// recovered journal, so it is both a deterministic scope and the
// journaling writer the mutators below it answer to.
//
//angstrom:deterministic
//angstrom:journaled writer
func (d *Daemon) restore(st *journal.State) error {
	jd := d.jd
	if st.Snapshot == nil && len(st.Records) == 0 {
		return nil // genesis: nothing to replay, keep the boot clock
	}
	clk := NewAtomicClock(0)
	d.swClock.swap(clk)
	jd.replaying = true
	defer func() { jd.replaying = false }()

	var last sim.Time
	if st.Snapshot != nil {
		var img snapImage
		if err := json.Unmarshal(st.Snapshot, &img); err != nil {
			return fmt.Errorf("server: decode snapshot %d: %w", st.SnapshotSeq, err)
		}
		clk.Set(img.Clock)
		last = img.Clock
		d.ticks.Store(img.Ticks)
		d.beats.Store(img.Beats)
		d.decisions.Store(img.Decisions)
		d.evicted.Store(img.Evicted)
		d.migrations.Store(img.Migrations)
		d.lastMigrate = img.LastMigrate
		d.powerOvercommit.Store(math.Float64bits(img.OvercommitW))
		// Re-derate before re-binding: restored partitions must see the
		// same effective bandwidth their contention was priced at.
		for i, s := range img.ChipScales {
			if d.fleet != nil && i < d.fleet.Chips() && s > 0 {
				if err := d.fleet.Chip(i).SetMemBandwidthScale(s); err != nil {
					return fmt.Errorf("server: restore chip %d scale: %w", i, err)
				}
			}
		}
		for i, v := range img.LoadAvgMem {
			if i < len(d.loadAvgMem) {
				d.loadAvgMem[i] = v
			}
		}
		for i, v := range img.LoadAvgNoC {
			if i < len(d.loadAvgNoC) {
				d.loadAvgNoC[i] = v
			}
		}
		for _, sa := range img.Apps {
			if err := d.restoreApp(sa); err != nil {
				return fmt.Errorf("server: restore %q: %w", sa.Name, err)
			}
		}
	}
	for _, payload := range st.Records {
		var rec record
		if err := json.Unmarshal(payload, &rec); err != nil {
			jd.badRecords++
			continue
		}
		if rec.T > last {
			last = rec.T
		}
		clk.Set(rec.T)
		d.replayRecord(rec)
	}
	jd.restoredApps = d.dir.len()
	jd.replayedRecords = len(st.Records)

	// Hand the clock over to the serving phase at the replay frontier.
	if d.cfg.Accel > 0 {
		d.simClock = NewAtomicClock(last)
		d.swClock.swap(d.simClock)
	} else {
		d.swClock.swap(NewWallClockAt(last))
	}
	return nil
}

// replayRecord re-executes one journaled mutation. Errors are
// deliberately discarded: a mutation that failed live (duplicate
// enroll, exhausted pool) was journaled ahead of its apply and fails
// identically here, which is exactly the history being reproduced.
//
//angstrom:deterministic
//angstrom:journaled writer
func (d *Daemon) replayRecord(rec record) {
	switch rec.Op {
	case opEnroll:
		if rec.Enroll != nil {
			_ = d.Enroll(*rec.Enroll)
		}
	case opWithdraw:
		_ = d.withdraw(rec.Name, rec.Evict)
	case opGoal:
		_ = d.SetGoal(rec.Name, rec.MinRate, rec.MaxRate)
	case opBeat:
		_ = d.Beat(rec.Name, rec.Count, rec.Distortion)
	case opBeatTS:
		_ = d.BeatTimestamps(rec.Name, rec.Timestamps, rec.Distortion)
	case opTick:
		d.tickAt(rec.T)
	case opMigrate:
		_ = d.applyMigration(rec.Name, rec.Chip, rec.T)
	case opChipScale:
		_ = d.applyChipScale(rec.Chip, rec.Scale)
	default:
		d.jd.badRecords++
	}
}

// restoreApp rebuilds one application from a snapshot entry: same
// monitor, same goal, and — for chip apps — the partition re-acquired
// at its recorded configuration and time share, so the ledger re-sums
// to its pre-crash value. Controller learning restores fresh. Runs
// single-goroutine during NewDaemon.
//
//angstrom:deterministic
//angstrom:journaled writer
func (d *Daemon) restoreApp(sa snapApp) error {
	spec, err := workload.ByName(sa.Workload)
	if err != nil {
		return err
	}
	if sa.Window < 2 {
		return fmt.Errorf("server: snapshot window %d too small", sa.Window)
	}
	if err := validGoal(sa.MinRate, sa.MaxRate); err != nil {
		return err
	}
	if err := validPriority(sa.Priority); err != nil {
		return err
	}
	mon := heartbeat.New(d.clock, heartbeat.WithWindow(sa.Window))
	mon.SetPerformanceGoal(sa.MinRate, sa.MaxRate)
	a := &app{name: sa.Name, spec: spec, mon: mon, window: sa.Window, enrolledAt: sa.EnrolledAt, migratedAt: sa.MigratedAt, prio: sa.Priority}
	units := sa.Units
	if units < 1 {
		units = 1
	}
	a.units.Store(int64(units))
	a.alloc = core.Allocation{App: sa.Name, Units: units, Demand: sa.Demand, Share: sa.AllocShare, GoalMet: sa.GoalFit}
	if a.alloc.Share <= 0 {
		a.alloc.Share = 1
	}
	var start *angstrom.Config
	share := 1.0
	if sa.Chip != nil {
		if d.fleet == nil {
			return fmt.Errorf("server: snapshot has chip app %q but the daemon runs without -chips", sa.Name)
		}
		if sa.Chip.Chip < 0 || sa.Chip.Chip >= d.fleet.Chips() {
			return fmt.Errorf("server: snapshot places %q on chip %d of %d", sa.Name, sa.Chip.Chip, d.fleet.Chips())
		}
		a.chip = sa.Chip.Chip
		start = &angstrom.Config{Cores: sa.Chip.Cores, CacheKB: sa.Chip.CacheKB, VF: sa.Chip.VF}
		share = sa.Chip.Share
	}
	if err := d.attach(a, start, share, d.clock.Now()); err != nil {
		return err
	}
	a.alloc.ID = a.mgrID
	return d.publish(a)
}

// buildImage captures the compacted prefix the snapshot at sequence seq
// stands for. Called with d.mu held, so no control-plane mutation can
// straddle the rotation boundary.
func (d *Daemon) buildImage(seq uint64) snapImage {
	img := snapImage{
		Seq:         seq,
		Clock:       d.clock.Now(),
		Ticks:       d.ticks.Load(),
		Beats:       d.beats.Load(),
		Decisions:   d.decisions.Load(),
		Evicted:     d.evicted.Load(),
		Migrations:  d.migrations.Load(),
		LastMigrate: d.lastMigrate,
		OvercommitW: math.Float64frombits(d.powerOvercommit.Load()),
	}
	if d.fleet != nil {
		derated := false
		scales := make([]float64, d.fleet.Chips())
		for i := range scales {
			scales[i] = d.fleet.Chip(i).MemBandwidthScale()
			if scales[i] != 1 {
				derated = true
			}
		}
		if derated {
			img.ChipScales = scales
		}
		img.LoadAvgMem = append([]float64(nil), d.loadAvgMem...)
		img.LoadAvgNoC = append([]float64(nil), d.loadAvgNoC...)
	}
	apps := d.dir.snapshot(make([]*app, 0, d.dir.len()))
	sort.Slice(apps, func(i, j int) bool { return apps[i].seq < apps[j].seq })
	img.Apps = make([]snapApp, 0, len(apps))
	for _, a := range apps {
		sa := snapApp{Name: a.name, Workload: a.spec.Name, Window: a.window, Priority: a.prio}
		if g := a.mon.Goals().Performance; g != nil {
			sa.MinRate, sa.MaxRate = g.MinRate, g.MaxRate
		}
		a.mu.Lock()
		sa.EnrolledAt = a.enrolledAt
		sa.MigratedAt = a.migratedAt
		sa.Units = a.alloc.Units
		sa.Demand = a.alloc.Demand
		sa.AllocShare = a.alloc.Share
		sa.GoalFit = a.alloc.GoalMet
		a.mu.Unlock()
		if part := a.partition(); part != nil {
			cfg := part.Config()
			sa.Chip = &snapChip{Chip: a.chip, Cores: cfg.Cores, CacheKB: cfg.CacheKB, VF: cfg.VF, Share: part.Share()}
		}
		img.Apps = append(img.Apps, sa)
	}
	return img
}

// Snapshot rotates the journal and atomically installs a snapshot at
// the rotation boundary, then prunes the segments and snapshots it
// supersedes. The rotation and the image capture happen under d.mu, so
// no mutation can land in both the image and the replay tail.
func (d *Daemon) Snapshot() error {
	jd := d.jd
	if jd == nil || jd.w == nil {
		return errors.New("server: no data directory configured")
	}
	if jd.degraded.Load() {
		return fmt.Errorf("server: %w: %s", ErrDegraded, jd.reason())
	}
	d.mu.Lock()
	seq, err := jd.w.Rotate()
	if err != nil {
		d.mu.Unlock()
		d.degrade(err)
		return fmt.Errorf("server: %w: %v", ErrDegraded, err)
	}
	img := d.buildImage(seq)
	d.mu.Unlock()
	payload, err := json.Marshal(img)
	if err != nil {
		return fmt.Errorf("server: encode snapshot: %w", err)
	}
	if err := journal.WriteSnapshot(jd.fs, jd.dir, seq, payload); err != nil {
		d.degrade(err)
		return fmt.Errorf("server: %w: %v", ErrDegraded, err)
	}
	jd.snapSeq.Store(seq)
	journal.Prune(jd.fs, jd.dir, seq)
	return nil
}

// maybeSnapshot takes a periodic snapshot when one is due. Called from
// the tick goroutine only.
func (d *Daemon) maybeSnapshot() {
	jd := d.jd
	if jd == nil || jd.snapEvery <= 0 || jd.degraded.Load() {
		return
	}
	if time.Since(jd.lastSnap) < jd.snapEvery {
		return
	}
	if err := d.Snapshot(); err == nil {
		jd.lastSnap = time.Now()
	}
}

// Close drains the daemon for a clean exit: stop the ODA loop (the
// in-flight tick finishes), take a final snapshot (unless snapshots are
// disabled or the journal already failed), and flush and close the
// journal. The SIGTERM path runs this after the HTTP server has
// drained. Safe without a data directory (plain Stop).
func (d *Daemon) Close() error {
	d.Stop()
	jd := d.jd
	if jd == nil {
		return nil
	}
	var first error
	if jd.snapEvery > 0 && !jd.degraded.Load() {
		if err := d.Snapshot(); err != nil {
			first = err
		}
	}
	if jd.w != nil {
		if err := jd.w.Close(); err != nil && first == nil && !jd.degraded.Load() {
			first = err
		}
	}
	return first
}
