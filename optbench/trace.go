package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/jobstore"
	"repro/internal/sim"
)

// span is one timed call across a layer boundary. Every span of one run or
// job shares its Trace; Parent is the index of the enclosing span in the
// recorder, or -1 for a root.
type span struct {
	Trace  string
	Name   string
	Start  int64 // ns since the recorder's epoch
	End    int64
	Parent int
	// N is the span's work count: points in a batch, requests in a fleet
	// call, bytes in a store put.
	N int
}

func (s span) dur() int64 { return s.End - s.Start }

// recorder keeps the traced pass's spans in memory; they are analysed when
// the pass ends. A nil recorder records nothing, which is the untraced path.
type recorder struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

func (r *recorder) now() int64 { return int64(time.Since(r.epoch)) }

func (r *recorder) add(s span) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, s)
	return len(r.spans) - 1
}

func (r *recorder) begin(trace, name string, parent int) int {
	return r.add(span{Trace: trace, Name: name, Start: r.now(), End: -1, Parent: parent})
}

func (r *recorder) end(i, n int) {
	t := r.now()
	r.mu.Lock()
	r.spans[i].End = t
	r.spans[i].N = n
	r.mu.Unlock()
}

// snapshot returns the recorded spans; call it after the pass has ended.
func (r *recorder) snapshot() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval that its children cover.
func selfTimes(spans []span) []int64 {
	children := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] = s.dur() - covered(s, spans, children[i])
	}
	return self
}

// covered is the length of the union of the child intervals, clipped to p.
func covered(p span, spans []span, kids []int) int64 {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		a, b := max(spans[k].Start, p.Start), min(spans[k].End, p.End)
		if b > a {
			iv = append(iv, [2]int64{a, b})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curA, curB int64
	open := false
	for _, v := range iv {
		switch {
		case !open:
			curA, curB, open = v[0], v[1], true
		case v[0] <= curB:
			curB = max(curB, v[1])
		default:
			total += curB - curA
			curA, curB = v[0], v[1]
		}
	}
	if open {
		total += curB - curA
	}
	return total
}

// selfSumTolerance is how far the self times of one trace may sum away from
// its root span's duration, as a share of it. Only rounding is allowed: a
// larger gap means spans overlap that should nest, which is a tracing bug.
const selfSumTolerance = 0.001

// checkSelfSums verifies that for every root span the self times of its
// subtree add up to its duration.
func checkSelfSums(spans []span, self []int64) error {
	root := make([]int, len(spans))
	sum := make(map[int]int64)
	for i, s := range spans {
		if s.Parent < 0 {
			root[i] = i
		} else {
			root[i] = root[s.Parent] // parents are recorded before children
		}
		sum[root[i]] += self[i]
	}
	for r, got := range sum {
		want := spans[r].dur()
		diff := got - want
		if diff < 0 {
			diff = -diff
		}
		if float64(diff) > selfSumTolerance*float64(want)+1 {
			return fmt.Errorf("trace %s: self times sum to %d ns, root %s spans %d ns", spans[r].Trace, got, spans[r].Name, want)
		}
	}
	return nil
}

// durations returns the durations, in µs, of the spans named name.
func durations(spans []span, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, float64(s.dur())/1e3)
		}
	}
	return out
}

// tracedSpace wraps a run's sim.LocalSpace and records a sim.batch span for
// every batch. Embedding forwards every other method, so the optional faces
// core asserts on (sim.BatchSampler, sim.RankedSampler, sim.Snapshotter)
// stay visible through the wrapper.
type tracedSpace struct {
	*sim.LocalSpace
	rec   *recorder
	trace string
	root  int
	batch int // open sim.batch span, for the fleet wrapper's parent
}

func (s *tracedSpace) SampleAll(points []sim.Point, dt float64) {
	i := s.open()
	s.LocalSpace.SampleAll(points, dt)
	s.rec.end(i, len(points))
}

func (s *tracedSpace) SampleBatch(ctx context.Context, points []sim.Point, dt float64) error {
	i := s.open()
	err := s.LocalSpace.SampleBatch(ctx, points, dt)
	s.rec.end(i, len(points))
	return err
}

func (s *tracedSpace) SampleBatchRanked(ctx context.Context, points []sim.Point, dt float64, rank func(int) int) error {
	i := s.open()
	err := s.LocalSpace.SampleBatchRanked(ctx, points, dt, rank)
	s.rec.end(i, len(points))
	return err
}

func (s *tracedSpace) open() int {
	s.batch = s.rec.begin(s.trace, "sim.batch", s.root)
	return s.batch
}

// Compile-time checks that the wrapper keeps every face core asserts on.
var (
	_ sim.BatchSampler  = (*tracedSpace)(nil)
	_ sim.RankedSampler = (*tracedSpace)(nil)
	_ sim.Snapshotter   = (*tracedSpace)(nil)
)

// tracedFleet wraps the fleet coordinator for one run and records a
// dist.call span, nested in the space's open batch, for every call.
type tracedFleet struct {
	inner sim.FleetSampler
	space *tracedSpace // set once the space is built; calls only come from its batches
}

func (f *tracedFleet) SampleFleet(ctx context.Context, reqs []sim.FleetRequest) ([]sim.FleetResult, error) {
	s := f.space
	i := s.rec.begin(s.trace, "dist.call", s.batch)
	res, err := f.inner.SampleFleet(ctx, reqs)
	s.rec.end(i, len(reqs))
	return res, err
}

// tracedStore wraps a shard's job store. While a recorder is set it records
// a jobstore.put span, keyed by job ID, for every Put; parents are assigned
// after the pass, by containment in the job's run interval. Failed calls
// are counted either way.
type tracedStore struct {
	jobstore.Store
	rec    atomic.Pointer[recorder]
	errors atomic.Int64
}

func (s *tracedStore) Put(id string, payload []byte) error {
	rec := s.rec.Load()
	if rec == nil {
		return s.count(s.Store.Put(id, payload))
	}
	start := rec.now()
	err := s.Store.Put(id, payload)
	rec.add(span{Trace: id, Name: "jobstore.put", Start: start, End: rec.now(), Parent: -1, N: len(payload)})
	return s.count(err)
}

func (s *tracedStore) Delete(id string) error { return s.count(s.Store.Delete(id)) }

func (s *tracedStore) count(err error) error {
	if err != nil {
		s.errors.Add(1)
	}
	return err
}

// tracedHandler wraps an HTTP handler (the router's or a shard's). While a
// recorder is set it records one span per request, named name+"."+kind and
// keyed by job ID.
// The ID comes from the path, the router's ?id= placement query, or, for a
// router submission, the response body.
type tracedHandler struct {
	inner http.Handler
	rec   atomic.Pointer[recorder]
	name  string
}

func (h *tracedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	rec := h.rec.Load()
	if rec == nil {
		h.inner.ServeHTTP(w, r)
		return
	}
	start := rec.now()
	cw := &captureWriter{ResponseWriter: w, capture: r.Method == http.MethodPost}
	h.inner.ServeHTTP(cw, r)
	end := rec.now()
	kind, id := requestKind(r)
	if id == "" && cw.capture {
		var body struct{ ID string }
		if json.Unmarshal(cw.buf.Bytes(), &body) == nil {
			id = body.ID
		}
	}
	rec.add(span{Trace: id, Name: h.name + "." + kind, Start: start, End: end, Parent: -1})
}

// requestKind classifies a job-service request and extracts its job ID.
func requestKind(r *http.Request) (kind, id string) {
	p := strings.Trim(r.URL.Path, "/")
	parts := strings.Split(p, "/")
	switch {
	case r.Method == http.MethodPost:
		return "submit", r.URL.Query().Get("id")
	case len(parts) == 4 && parts[3] == "result":
		return "result", parts[2]
	case len(parts) == 3 && parts[1] == "jobs":
		return "status", parts[2]
	}
	return "other", ""
}

// captureWriter keeps a copy of a POST response body so the router's
// submission span can learn the job ID it minted.
type captureWriter struct {
	http.ResponseWriter
	capture bool
	buf     bytes.Buffer
}

func (w *captureWriter) Write(b []byte) (int, error) {
	if w.capture {
		w.buf.Write(b)
	}
	return w.ResponseWriter.Write(b)
}

func (w *captureWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}
