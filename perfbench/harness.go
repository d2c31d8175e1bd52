package main

import (
	"bytes"
	"container/heap"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"angstrom/internal/journal"
	"angstrom/internal/server"
)

// workloadNames is the declared-behaviour mix every fleet draws from.
var workloadNames = []string{"barnes", "ocean", "raytrace", "water", "volrend"}

// opts is one pass of one workload.
type opts struct {
	seed    int64
	seconds float64
	// scratch is a directory inside the checkout this pass may use for
	// data directories; it is removed when the run ends.
	scratch string
	// t is nil on untraced passes.
	t *tracer
	// scale shrinks every fleet and rate (1 = the benchmark's shape;
	// the self-tests run tiny fleets).
	scale float64
}

// scaled is n at the pass's scale, at least lo.
func (o opts) scaled(n, lo int) int {
	return max(lo, int(float64(n)*o.scale))
}

// rng derives an independent, reproducible stream for one purpose.
func (o opts) rng(stream int64) *rand.Rand {
	return rand.New(rand.NewSource(o.seed*1_000_003 + stream))
}

// ops counts client operations attempted and failed across all
// generator goroutines; the first few failures are kept for the report.
type ops struct {
	attempted, failed atomic.Int64
	mu                sync.Mutex
	errs              []string
}

// done counts one attempt and reports whether it succeeded.
func (o *ops) done(err error) bool {
	o.attempted.Add(1)
	if err == nil {
		return true
	}
	o.fail(err)
	return false
}

// fail counts a failure of an attempt already counted (or one that
// never got to run, such as a probe that timed out).
func (o *ops) fail(err error) {
	o.failed.Add(1)
	o.mu.Lock()
	if len(o.errs) < 5 {
		o.errs = append(o.errs, err.Error())
	}
	o.mu.Unlock()
}

// client is one HTTP/1.1 keep-alive connection to the daemon: every
// request on it is sequential, as from a single client socket.
type client struct {
	hc   *http.Client
	base string
	t    *tracer
}

func newClient(base string, t *tracer) *client {
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
	return &client{hc: &http.Client{Transport: tr}, base: base, t: t}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// call issues one request and fails unless the response has status
// want. out, when non-nil, receives the decoded JSON body. On traced
// passes it records a gen.<name> span whose id the server-side span
// names as parent.
func (c *client) call(name, method, path string, body []byte, want int, out any) error {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	id := c.t.id()
	if id != 0 {
		req.Header.Set(traceHeader, strconv.FormatUint(id, 10)+":"+strconv.FormatUint(id, 10))
	}
	start := time.Now()
	resp, err := c.hc.Do(req)
	if err != nil {
		return fmt.Errorf("%s %s: %w", method, path, err)
	}
	if resp.StatusCode != want {
		msg, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		return fmt.Errorf("%s %s: status %d: %s", method, path, resp.StatusCode, bytes.TrimSpace(msg))
	}
	if out != nil {
		err = json.NewDecoder(resp.Body).Decode(out)
	}
	_, _ = io.Copy(io.Discard, resp.Body) // drain so the connection is reused
	resp.Body.Close()
	c.t.addID(id, "gen."+name, id, 0, start, time.Now())
	if err != nil {
		return fmt.Errorf("%s %s: decode: %w", method, path, err)
	}
	return nil
}

func (c *client) enroll(name string, req server.EnrollRequest) error {
	b, err := json.Marshal(req)
	if err != nil {
		return err
	}
	return c.call(name, http.MethodPost, "/v1/apps", b, http.StatusCreated, nil)
}

func (c *client) withdraw(name, app string) error {
	return c.call(name, http.MethodDelete, "/v1/apps/"+app, nil, http.StatusNoContent, nil)
}

// status reads one app's status, decoding it when out is non-nil.
func (c *client) status(name, app string, out *server.AppStatus) error {
	var dst any
	if out != nil {
		dst = out
	}
	return c.call(name, http.MethodGet, "/v1/apps/"+app, nil, http.StatusOK, dst)
}

// beatBody is the JSON body of a count-only beat batch.
func beatBody(count int) []byte { return []byte(`{"count":` + strconv.Itoa(count) + `}`) }

// serving is an in-process daemon behind real loopback listeners.
type serving struct {
	d        *server.Daemon
	srv      *http.Server
	base     string
	ws       *server.WireServer
	wireAddr string
	// handler and wireBytes are set on traced passes only.
	handler   *tracedHandler
	wireBytes atomic.Int64
	wg        sync.WaitGroup
}

// serve starts the HTTP API (and, when wire is set, the binary beat
// listener) for d on loopback ports.
func serve(d *server.Daemon, t *tracer, wire bool) (*serving, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &serving{d: d, base: "http://" + ln.Addr().String()}
	h := d.Handler()
	if t != nil {
		s.handler = &tracedHandler{next: h, t: t}
		h = s.handler
	}
	s.srv = &http.Server{Handler: h}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		_ = s.srv.Serve(ln) // returns http.ErrServerClosed on close
	}()
	if wire {
		wl, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			s.close()
			return nil, err
		}
		if t != nil {
			wl = countingListener{Listener: wl, n: &s.wireBytes}
		}
		s.wireAddr = wl.Addr().String()
		s.ws = server.NewWireServer(d, wl)
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			_ = s.ws.Serve() // nil after Close
		}()
	}
	return s, nil
}

// close stops both listeners and waits for their serve loops.
func (s *serving) close() {
	_ = s.srv.Close()
	if s.ws != nil {
		_ = s.ws.Close()
	}
	s.wg.Wait()
}

// tickLog records every Daemon.Tick the harness drives.
type tickLog struct {
	durMs  []float64
	lateMs []float64 // actual start minus scheduled start (real clock)
	busy   time.Duration
	// allocs and allocBytes are runtime/metrics deltas across each Tick
	// (traced passes only; other goroutines' allocations leak in).
	allocs, allocBytes []float64
}

var allocSamples = []string{"/gc/heap/allocs:objects", "/gc/heap/allocs:bytes"}

// tick runs one timed Daemon.Tick and returns when it started.
func (l *tickLog) tick(d *server.Daemon, t *tracer) time.Time {
	var ms []metrics.Sample
	if t != nil {
		ms = make([]metrics.Sample, 2)
		ms[0].Name, ms[1].Name = allocSamples[0], allocSamples[1]
		metrics.Read(ms)
	}
	start := time.Now()
	d.Tick()
	end := time.Now()
	if t != nil {
		a0, b0 := ms[0].Value.Uint64(), ms[1].Value.Uint64()
		metrics.Read(ms)
		l.allocs = append(l.allocs, float64(ms[0].Value.Uint64()-a0))
		l.allocBytes = append(l.allocBytes, float64(ms[1].Value.Uint64()-b0))
		t.add("tick", 0, 0, start, end)
	}
	l.durMs = append(l.durMs, ms64(end.Sub(start)))
	l.busy += end.Sub(start)
	return start
}

// realClockTicks calls Tick on the period grid until stop closes, as
// Daemon.Start would (a tick that overruns skips the missed slots).
func realClockTicks(d *server.Daemon, period time.Duration, stop <-chan struct{}, t *tracer) *tickLog {
	l := &tickLog{}
	origin := time.Now()
	timer := time.NewTimer(period)
	defer timer.Stop()
	for k := int64(1); ; k++ {
		due := origin.Add(time.Duration(k) * period)
		timer.Reset(time.Until(due))
		select {
		case <-stop:
			return l
		case <-timer.C:
		}
		start := l.tick(d, t)
		l.lateMs = append(l.lateMs, ms64(start.Sub(due)))
		if behind := int64(time.Since(origin) / period); behind > k {
			k = behind
		}
	}
}

// heapPeak tracks the peak live heap: the bytes the garbage collector
// marked reachable at the end of each cycle during the phase, sampled
// every few milliseconds. Unlike the allocated heap between cycles it
// does not depend on when the pacer happened to start a cycle.
type heapPeak struct {
	stop chan struct{}
	done chan struct{}
	peak uint64
}

func sampleHeap() *heapPeak {
	h := &heapPeak{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
		tk := time.NewTicker(2 * time.Millisecond)
		defer tk.Stop()
		for {
			metrics.Read(s)
			h.peak = max(h.peak, s[0].Value.Uint64())
			select {
			case <-h.stop:
				metrics.Read(s) // the closing collection's live heap
				h.peak = max(h.peak, s[0].Value.Uint64())
				return
			case <-tk.C:
			}
		}
	}()
	return h
}

// end closes the phase with one more collection, so state live at its
// end counts even if no cycle ran, and returns the peak in MB.
func (h *heapPeak) end() float64 {
	runtime.GC()
	close(h.stop)
	<-h.done
	return float64(h.peak) / (1 << 20)
}

// gcWindow brackets a phase to count GC cycles and collect their pauses.
type gcWindow struct{ n0 uint32 }

func gcStart() gcWindow {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return gcWindow{n0: ms.NumGC}
}

// end returns the cycles since start and the pause of each (ms; at most
// the runtime's last 256).
func (w gcWindow) end() (int, []float64) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	n := int(ms.NumGC - w.n0)
	var pauses []float64
	for i := 0; i < n && i < len(ms.PauseNs); i++ {
		idx := (int(ms.NumGC) - 1 - i + len(ms.PauseNs)) % len(ms.PauseNs)
		pauses = append(pauses, float64(ms.PauseNs[idx])/1e6)
	}
	return n, pauses
}

// loop is a single-goroutine open-loop scheduler for one client
// connection: operations run in due order, each starting no earlier
// than its due time, and lateness (start minus due) is recorded so a
// stalled connection shows up instead of silently thinning the load.
type loop struct {
	h      opHeap
	seq    int
	lateMs []float64
}

type scheduled struct {
	due time.Time
	seq int // FIFO among equal due times
	run func(due time.Time)
}

type opHeap []scheduled

func (h opHeap) Len() int { return len(h) }
func (h opHeap) Less(i, j int) bool {
	if h[i].due.Equal(h[j].due) {
		return h[i].seq < h[j].seq
	}
	return h[i].due.Before(h[j].due)
}
func (h opHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *opHeap) Push(x any)   { *h = append(*h, x.(scheduled)) }
func (h *opHeap) Pop() any {
	old := *h
	x := old[len(old)-1]
	*h = old[:len(old)-1]
	return x
}

func (l *loop) at(due time.Time, run func(due time.Time)) {
	l.seq++
	heap.Push(&l.h, scheduled{due: due, seq: l.seq, run: run})
}

// every runs run at first, first+interval, ... for as long as more
// accepts the next due time; each run schedules its successor, so the
// series can end on an event (the last tick) as well as on a time.
func (l *loop) every(first time.Time, interval time.Duration, more func(due time.Time) bool, run func(due time.Time)) {
	var step func(due time.Time)
	step = func(due time.Time) {
		run(due)
		if next := due.Add(interval); more(next) {
			l.at(next, step)
		}
	}
	if more(first) {
		l.at(first, step)
	}
}

// run executes operations until none remain or the hard deadline
// passes; it returns how many were abandoned at the deadline.
func (l *loop) run(deadline time.Time) int {
	for l.h.Len() > 0 {
		op := heap.Pop(&l.h).(scheduled)
		if time.Now().After(deadline) {
			return l.h.Len() + 1
		}
		if d := time.Until(op.due); d > 0 {
			time.Sleep(d)
		}
		l.lateMs = append(l.lateMs, ms64(time.Since(op.due)))
		op.run(op.due)
	}
	return 0
}

// prober measures decision lag on a real-clock daemon: a probe beat on
// an app nothing else beats, then status polls until a decision at or
// after that beat's timestamp is visible.
type prober struct {
	c     *client
	o     *ops
	apps  []string
	busy  []bool
	next  int
	every time.Duration // poll interval
	lags  []float64     // ms from the probe's 202 to the first fresh read
	beats int64         // acknowledged probe beats
}

const probeTimeout = 5 * time.Second

func (p *prober) start(l *loop, _ time.Time) {
	i := -1
	for k := 0; k < len(p.apps); k++ {
		j := (p.next + k) % len(p.apps)
		if !p.busy[j] {
			i = j
			break
		}
	}
	if i < 0 {
		p.o.done(fmt.Errorf("probe: all %d probe apps still waiting", len(p.apps)))
		return
	}
	p.next = (i + 1) % len(p.apps)
	err := p.c.call("probe", http.MethodPost, "/v1/apps/"+p.apps[i]+"/beats", beatBody(1), http.StatusAccepted, nil)
	ack := time.Now()
	if !p.o.done(err) {
		return
	}
	p.beats++
	p.busy[i] = true
	p.poll(l, i, ack, -1)
}

// poll reads the probe app's status; last is the probe beat's
// observation.last_time, learned from the first read (-1 until then).
func (p *prober) poll(l *loop, i int, ack time.Time, last float64) {
	var st server.AppStatus
	err := p.c.status("probe_poll", p.apps[i], &st)
	now := time.Now()
	if !p.o.done(err) {
		p.busy[i] = false
		return
	}
	if last < 0 {
		last = st.Observation.LastTime
	}
	if st.Decision != nil && st.Decision.Time >= last {
		p.lags = append(p.lags, ms64(now.Sub(ack)))
		p.busy[i] = false
		return
	}
	if now.Sub(ack) > probeTimeout {
		p.o.fail(fmt.Errorf("probe %s: no fresh decision after %v", p.apps[i], probeTimeout))
		p.busy[i] = false
		return
	}
	l.at(now.Add(p.every), func(time.Time) { p.poll(l, i, ack, last) })
}

// statusReader issues open-loop GET /v1/apps/{name} reads, timed from
// their due time.
type statusReader struct {
	c    *client
	o    *ops
	rng  *rand.Rand
	apps []string
	ms   []float64
}

func (s *statusReader) read(due time.Time) {
	app := s.apps[s.rng.Intn(len(s.apps))]
	if s.o.done(s.c.status("status", app, nil)) {
		s.ms = append(s.ms, ms64(time.Since(due)))
	}
}

func ms64(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// copyDir copies the regular files directly under src into a new dst:
// the image a kill -9 leaves of a live daemon's data directory.
func copyDir(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	ents, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range ents {
		if !e.Type().IsRegular() {
			continue
		}
		b, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), b, 0o644); err != nil {
			return err
		}
	}
	return nil
}

// journalFS returns the filesystem a journaled daemon runs on: the
// traced wrapper on traced passes, nil (the real one) otherwise.
func journalFS(t *tracer) (*tracedFS, journal.FS) {
	if t == nil {
		return nil, nil
	}
	f := &tracedFS{FS: journal.OS(), t: t}
	return f, f
}
