package main

import (
	"bufio"
	"encoding/json"
	"net"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"angstrom/internal/journal"
)

// span is one timed call across a layer boundary. Spans of one request
// share Trace; Parent is the span that caused this one (0 when the
// boundary cannot know it, e.g. a journal fsync on the flusher).
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Trace  uint64 `json:"trace"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer's epoch
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory for the whole run; write dumps them at
// the end. A nil *tracer records nothing, so untraced runs pay one nil
// check per boundary.
type tracer struct {
	epoch time.Time
	ids   atomic.Uint64
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), spans: make([]span, 0, 1<<16)}
}

func (t *tracer) id() uint64 {
	if t == nil {
		return 0
	}
	return t.ids.Add(1)
}

func (t *tracer) ns(at time.Time) int64 { return at.Sub(t.epoch).Nanoseconds() }

// add records a finished span; trace 0 starts a new trace rooted at it.
func (t *tracer) add(name string, trace, parent uint64, start, end time.Time) {
	if t == nil {
		return
	}
	id := t.id()
	if trace == 0 {
		trace = id
	}
	t.addID(id, name, trace, parent, start, end)
}

// addID records a span whose id the caller allocated up front (a client
// span announced to the server before the call returned).
func (t *tracer) addID(id uint64, name string, trace, parent uint64, start, end time.Time) {
	if t == nil {
		return
	}
	s := span{ID: id, Parent: parent, Trace: trace, Name: name, Start: t.ns(start), End: t.ns(end)}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// all returns the recorded spans (call after every recorder stopped).
func (t *tracer) all() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.spans
}

// write dumps the spans as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range t.all() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// byName groups span durations (in the given unit) by span name.
func byName(spans []span, unit time.Duration) map[string][]float64 {
	out := map[string][]float64{}
	for _, s := range spans {
		out[s.Name] = append(out[s.Name], float64(s.dur())/float64(unit))
	}
	return out
}

// children indexes spans by parent id.
func children(spans []span) map[uint64][]span {
	kids := map[uint64][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	return kids
}

// selfTimes returns, per span name, each span's duration minus the part
// of its interval covered by its children — for every span that has at
// least one child.
func selfTimes(spans []span, unit time.Duration) map[string][]float64 {
	kids := children(spans)
	out := map[string][]float64{}
	for _, s := range spans {
		if ch := kids[s.ID]; len(ch) > 0 {
			out[s.Name] = append(out[s.Name], float64(s.dur()-covered(s, ch))/float64(unit))
		}
	}
	return out
}

// covered is how much of parent's interval the union of kids covers.
func covered(parent span, kids []span) time.Duration {
	type iv struct{ a, b int64 }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		a, b := max(k.Start, parent.Start), min(k.End, parent.End)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	for i := 1; i < len(ivs); i++ { // few children: insertion sort
		for j := i; j > 0 && ivs[j].a < ivs[j-1].a; j-- {
			ivs[j], ivs[j-1] = ivs[j-1], ivs[j]
		}
	}
	var sum, end int64
	for _, v := range ivs {
		if v.a < end {
			v.a = end
		}
		if v.b > v.a {
			sum += v.b - v.a
			end = v.b
		}
	}
	return time.Duration(sum)
}

// traceHeader carries "trace:parent" from a client span to the server
// span the handler wrapper records, so both share a trace id.
const traceHeader = "X-Perfbench-Trace"

// tracedHandler wraps Daemon.Handler: one span per request, named by
// route, parented to the client span when the header names one.
type tracedHandler struct {
	next   http.Handler
	t      *tracer
	errors atomic.Int64 // responses outside 2xx
}

type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

func (h *tracedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
	h.next.ServeHTTP(sw, r)
	end := time.Now()
	if sw.code < 200 || sw.code > 299 {
		h.errors.Add(1)
	}
	var trace, parent uint64
	if v := r.Header.Get(traceHeader); v != "" {
		if a, b, ok := strings.Cut(v, ":"); ok {
			trace, _ = strconv.ParseUint(a, 10, 64)
			parent, _ = strconv.ParseUint(b, 10, 64)
		}
	}
	h.t.add("http."+route(r), trace, parent, start, end)
}

// route names an API request for span grouping.
func route(r *http.Request) string {
	p := strings.TrimPrefix(r.URL.Path, "/v1/apps")
	switch {
	case p == r.URL.Path:
		return "other"
	case p == "" || p == "/":
		if r.Method == http.MethodPost {
			return "enroll"
		}
		return "list"
	case strings.HasSuffix(p, "/beats"):
		return "beats"
	case strings.HasSuffix(p, "/goal"):
		return "goal"
	case r.Method == http.MethodDelete:
		return "withdraw"
	default:
		return "status"
	}
}

// countingListener counts the bytes the server reads from every
// accepted connection (the wire protocol's on-the-wire cost).
type countingListener struct {
	net.Listener
	n *atomic.Int64
}

func (l countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return countingConn{Conn: c, n: l.n}, nil
}

type countingConn struct {
	net.Conn
	n *atomic.Int64
}

func (c countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.n.Add(int64(n))
	return n, err
}

// tracedFS wraps the journal's filesystem: spans around every file
// Write and Sync and every ReadFile. boot, when set, parents ReadFile
// spans to the recovery boot that caused them.
type tracedFS struct {
	journal.FS
	t     *tracer
	boot  atomic.Uint64
	bytes atomic.Int64
	syncs atomic.Int64
}

func (f *tracedFS) OpenAppend(name string) (journal.File, error) {
	fl, err := f.FS.OpenAppend(name)
	if err != nil {
		return nil, err
	}
	return &tracedFile{File: fl, fs: f}, nil
}

func (f *tracedFS) Create(name string) (journal.File, error) {
	fl, err := f.FS.Create(name)
	if err != nil {
		return nil, err
	}
	return &tracedFile{File: fl, fs: f}, nil
}

func (f *tracedFS) ReadFile(name string) ([]byte, error) {
	start := time.Now()
	b, err := f.FS.ReadFile(name)
	boot := f.boot.Load()
	f.t.add("journal.readfile", boot, boot, start, time.Now())
	return b, err
}

type tracedFile struct {
	journal.File
	fs *tracedFS
}

func (f *tracedFile) Write(p []byte) (int, error) {
	start := time.Now()
	n, err := f.File.Write(p)
	f.fs.t.add("journal.write", 0, 0, start, time.Now())
	f.fs.bytes.Add(int64(n))
	return n, err
}

func (f *tracedFile) Sync() error {
	start := time.Now()
	err := f.File.Sync()
	f.fs.t.add("journal.sync", 0, 0, start, time.Now())
	f.fs.syncs.Add(1)
	return err
}
