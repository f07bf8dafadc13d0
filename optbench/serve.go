package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/jobs"
	"repro/internal/jobstore"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/shard"
	"repro/internal/stats"
)

// The serve workload: open-loop HTTP submissions through the shard router
// to two in-process shards, each the real serve handler over a jobs.Manager
// with a WAL store on local disk and checkpoints on.

// serveCapacity is the deployment's measured capacity in jobs/s on a 2-core
// host: the rate it served 300-job bursts at (210 to 247, median 236, over
// nine bursts). The overloaded phase's served rate, logged by every run,
// measures it again.
const serveCapacity = 235

// serveRates are the three fixed open-loop arrival rates, in jobs/s: 0.5,
// 0.7 and 1.5 times capacity. With the host's load, capacity moved between
// about 165 and 250 jobs/s from run to run, a wider range than a 1.3x step
// between rates, so a phase at 1x flipped between met and missed. The 0.7x
// phase is met and the 1.5x phase missed across that range; a lasting
// capacity change of about a third flips one of them.
var serveRates = [3]float64{0.5 * serveCapacity, 0.7 * serveCapacity, 1.5 * serveCapacity}

// serveLimit is the p90 latency a rate must meet. A phase offered its
// deployment's capacity kept its p90 at or below 165 ms; an overloaded one
// (1.3x capacity and more) rose past 195 ms and kept rising with its length.
const serveLimit = 250 * time.Millisecond

var serveMix = []shape{
	{alg: "pc", dim: 8, iters: 80},
	{alg: "pso", dim: 8, iters: 30, particles: 16},
	{alg: "det", dim: 8, iters: 200},
}

const (
	serveSpecReps = 160 // 480 distinct specs
	serveTenants  = 4
	serveShards   = 2
	// serveEdgeJobs is how many arrivals each rate's phase holds: enough
	// that an overloaded phase's backlog grows well past the random walk
	// of a phase at capacity.
	serveEdgeJobs = 360
	serveSigma0   = 5
	// pollAfter is how long an open-loop result read waits before it asks
	// again for a job that was not finished; pollEvery is the closed loop's
	// interval, short because its clients wait for nothing else.
	pollAfter = 5 * time.Millisecond
	pollEvery = time.Millisecond
)

// serveRef is the reference for one spec: the exact /result body the
// service must return, and the numbers the metrics aggregate.
type serveRef struct {
	body     []byte
	iters    int
	evals    int64
	residual float64
}

// serveReference runs every spec once on an in-process manager with a
// 1-worker pool and no store, and renders the body the handler would send.
func serveReference(specs []runSpec) ([]serveRef, error) {
	mgr, err := jobs.New(jobs.Config{Workers: 1, MaxConcurrent: 1})
	if err != nil {
		return nil, err
	}
	defer mgr.Close()
	out := make([]serveRef, len(specs))
	for i, s := range specs {
		id, err := mgr.Submit(s.jobSpec())
		if err != nil {
			return nil, fmt.Errorf("reference job %d: %w", i, err)
		}
		res, err := mgr.Wait(id)
		if err != nil {
			return nil, fmt.Errorf("reference job %d: %w", i, err)
		}
		rr := httptest.NewRecorder()
		serve.WriteJSON(rr, http.StatusOK, map[string]any{"state": jobs.StateDone, "result": res})
		out[i] = serveRef{body: rr.Body.Bytes(), iters: res.Iterations, evals: res.Evaluations, residual: residual(res)}
	}
	return out, nil
}

// serveShard is one in-process replica.
type serveShard struct {
	dir     string
	store   *tracedStore
	mgr     *jobs.Manager
	handler *tracedHandler
	srv     *httptest.Server
}

// newServeShard opens a WAL store in dir and serves a manager over it.
// Shards sample on one worker each, so two shards fill a 2-core host, and
// checkpoint every 75 iterations, so the longer runs write one or two.
func newServeShard(dir string) (*serveShard, error) {
	st, err := jobstore.Open("wal", dir)
	if err != nil {
		return nil, err
	}
	s := &serveShard{dir: dir, store: &tracedStore{Store: st}}
	s.mgr, err = jobs.New(jobs.Config{Store: s.store, Workers: 1, CheckpointEvery: 75})
	if err != nil {
		st.Close()
		return nil, err
	}
	s.handler = &tracedHandler{inner: serve.New(serve.Config{Mgr: s.mgr, DefaultSeed: 1}), name: "serve"}
	s.srv = httptest.NewServer(s.handler)
	return s, nil
}

// serveEnv is the built deployment: shards, router, and the generator's
// client.
type serveEnv struct {
	dir    string
	shards []*serveShard
	router *shard.Router
	rt     *tracedHandler
	front  *httptest.Server
	client *http.Client
	// routerTransport is the router's own client transport, closed with it.
	routerTransport *http.Transport
}

func newServeEnv(o options) (*serveEnv, error) {
	if err := os.MkdirAll(o.workdir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(o.workdir, "serve-")
	if err != nil {
		return nil, err
	}
	e := &serveEnv{dir: dir}
	var table []shard.Shard
	for i := 0; i < serveShards; i++ {
		var s *serveShard
		if s, err = newServeShard(filepath.Join(dir, fmt.Sprintf("shard%d", i))); err != nil {
			e.close()
			return nil, err
		}
		e.shards = append(e.shards, s)
		table = append(table, shard.Shard{Addr: strings.TrimPrefix(s.srv.URL, "http://"), Dir: s.dir, Store: "wal"})
	}
	e.routerTransport = &http.Transport{}
	e.router, err = shard.New(shard.Config{Shards: table, Client: &http.Client{Transport: e.routerTransport}})
	if err != nil {
		e.close()
		return nil, err
	}
	e.rt = &tracedHandler{inner: e.router.Handler(), name: "shard"}
	e.front = httptest.NewServer(e.rt)
	e.client = &http.Client{Transport: &http.Transport{MaxConnsPerHost: o.nproc, MaxIdleConnsPerHost: o.nproc}}

	// Warm-up: one seed-independent job of every shape through the router.
	warm := genSpecs(0, serveMix, 1, serveSigma0, serveTenants)
	for _, s := range warm {
		id, err := e.submit(s)
		if err != nil {
			e.close()
			return nil, fmt.Errorf("warm-up: %w", err)
		}
		for {
			code, _, err := e.get("/v1/jobs/" + id + "/result")
			if err != nil {
				e.close()
				return nil, fmt.Errorf("warm-up: %w", err)
			}
			if code == http.StatusOK {
				break
			}
			time.Sleep(time.Millisecond)
		}
	}
	return e, nil
}

func (e *serveEnv) close() {
	if e.front != nil {
		e.front.Close()
	}
	if e.client != nil {
		e.client.CloseIdleConnections()
	}
	if e.router != nil {
		e.router.Close()
		e.routerTransport.CloseIdleConnections()
	}
	for _, s := range e.shards {
		s.srv.Close()
		s.mgr.Close()
	}
	os.RemoveAll(e.dir)
}

// setRecorder switches tracing on (rec != nil) or off at every wrapper.
func (e *serveEnv) setRecorder(rec *recorder) {
	e.rt.rec.Store(rec)
	for _, s := range e.shards {
		s.handler.rec.Store(rec)
		s.store.rec.Store(rec)
	}
}

func (e *serveEnv) submit(s runSpec) (string, error) {
	body, err := json.Marshal(s.jobSpec())
	if err != nil {
		return "", err
	}
	resp, err := e.client.Post(e.front.URL+"/v1/tenants/"+s.Tenant+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	var out struct {
		ID    string `json:"id"`
		Error string `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return "", fmt.Errorf("submit: status %d: %w", resp.StatusCode, err)
	}
	if resp.StatusCode != http.StatusAccepted {
		return "", fmt.Errorf("submit: status %d: %s", resp.StatusCode, out.Error)
	}
	return out.ID, nil
}

func (e *serveEnv) get(path string) (int, []byte, error) {
	resp, err := e.client.Get(e.front.URL + path)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// jobRecord is one open-loop arrival and what became of it.
type jobRecord struct {
	spec    int
	due     time.Time
	sent    time.Time
	id      string
	nextTry time.Time
	ok      bool
	status  jobs.Status
}

// phase is one open-loop phase at one rate.
type phase struct {
	jobs   []*jobRecord
	start  time.Time
	arrEnd time.Time
	proc   procDelta
	before obs.Snapshot
	after  obs.Snapshot
	spans  []span
}

func (p *phase) good() []*jobRecord {
	var out []*jobRecord
	for _, j := range p.jobs {
		if j.ok {
			out = append(out, j)
		}
	}
	return out
}

// runPhase submits the schedule open-loop from one goroutine, which
// sleeps until each arrival is due, while the other gen-1 goroutines read
// the results of earlier jobs; with gen 1 the submitter reads once every
// arrival is sent. Each result body is compared byte for byte with the
// reference.
func (e *serveEnv) runPhase(sched []arrival, specs []runSpec, refs []serveRef, gen int, log func(string, ...any)) *phase {
	p := &phase{}
	var mu sync.Mutex
	var pending []*jobRecord
	inflight := 0 // records taken from pending and not yet put back or finished
	sent := false // every arrival has been submitted

	// take removes the pending record that is ready soonest, or returns nil
	// when there is none.
	take := func() *jobRecord {
		mu.Lock()
		defer mu.Unlock()
		if len(pending) == 0 {
			return nil
		}
		k := 0
		for i, j := range pending {
			if j.nextTry.Before(pending[k].nextTry) {
				k = i
			}
		}
		j := pending[k]
		pending = append(pending[:k], pending[k+1:]...)
		inflight++
		return j
	}
	// readAll asks for results until every arrival is sent and read; an
	// unfinished job goes back to pending.
	readAll := func() {
		for {
			j := take()
			if j == nil {
				mu.Lock()
				idle := sent && inflight == 0 && len(pending) == 0
				mu.Unlock()
				if idle {
					return
				}
				time.Sleep(pollAfter)
				continue
			}
			time.Sleep(time.Until(j.nextTry))
			done, err := e.readResult(j, refs[j.spec].body)
			mu.Lock()
			inflight--
			switch {
			case err != nil:
				log("job %s: %v", j.id, err)
			case !done:
				j.nextTry = time.Now().Add(pollAfter)
				pending = append(pending, j)
			}
			mu.Unlock()
		}
	}

	p.before = obs.Default().Snapshot()
	start := readProc()
	p.start = time.Now().Add(10 * time.Millisecond)
	if len(sched) > 0 {
		p.arrEnd = p.start.Add(sched[len(sched)-1].Due)
	}
	p.jobs = make([]*jobRecord, len(sched))
	var wg sync.WaitGroup
	for g := 1; g < gen; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			readAll()
		}()
	}
	for i, a := range sched {
		j := &jobRecord{spec: a.Spec, due: p.start.Add(a.Due)}
		p.jobs[i] = j
		sleepUntil(j.due)
		j.sent = time.Now()
		id, err := e.submit(specs[a.Spec])
		if err != nil {
			log("submit: %v", err)
			continue
		}
		j.id = id
		j.nextTry = time.Now().Add(pollAfter)
		mu.Lock()
		pending = append(pending, j)
		mu.Unlock()
	}
	mu.Lock()
	sent = true
	mu.Unlock()
	if gen == 1 {
		readAll()
	}
	wg.Wait()
	p.proc = start.to(readProc())
	p.after = obs.Default().Snapshot()
	return p
}

// sleepUntil blocks until t in nanosleep. The runtime's timers wake a
// goroutine up to a millisecond late, which would be charged to every
// arrival as generator lateness; a blocking syscall wakes on time.
func sleepUntil(t time.Time) {
	for d := time.Until(t); d > 0; d = time.Until(t) {
		ts := syscall.NsecToTimespec(int64(d))
		_ = syscall.Nanosleep(&ts, nil) // EINTR: loop and sleep the rest
	}
}

// readResult fetches a job's result; once it is there, checks it against
// the reference body and reads the job's status for its time stamps.
func (e *serveEnv) readResult(j *jobRecord, want []byte) (done bool, err error) {
	code, body, err := e.get("/v1/jobs/" + j.id + "/result")
	if err != nil {
		return true, err
	}
	if code == http.StatusConflict {
		return false, nil
	}
	if code != http.StatusOK {
		return true, fmt.Errorf("result: status %d: %s", code, body)
	}
	if !bytes.Equal(body, want) {
		return true, fmt.Errorf("result body differs from the reference")
	}
	code, body, err = e.get("/v1/jobs/" + j.id)
	if err != nil {
		return true, err
	}
	if code != http.StatusOK {
		return true, fmt.Errorf("status: status %d: %s", code, body)
	}
	if err := json.Unmarshal(body, &j.status); err != nil {
		return true, err
	}
	if j.status.State != jobs.StateDone {
		return true, fmt.Errorf("job ended %s", j.status.State)
	}
	j.ok = true
	return true, nil
}

// served is the phase's completed jobs per second, from its start to the
// last job's Finished stamp.
func (p *phase) served() float64 {
	good := p.good()
	last := p.start
	for _, j := range good {
		if j.status.Finished.After(last) {
			last = j.status.Finished
		}
	}
	return float64(len(good)) / last.Sub(p.start).Seconds()
}

// latencies returns due-to-Finished latencies in ms of the phase's good jobs.
func (p *phase) latencies() []float64 {
	var out []float64
	for _, j := range p.good() {
		out = append(out, float64(j.status.Finished.Sub(j.due))/1e6)
	}
	return out
}

// backlog samples, at 20 points over the arrival window, how many jobs
// were due and not yet finished. A failed job counts as never finishing.
func (p *phase) backlog() []float64 {
	const points = 20
	span := p.arrEnd.Sub(p.start)
	out := make([]float64, points)
	for k := range out {
		t := p.start.Add(span * time.Duration(k+1) / points)
		for _, j := range p.jobs {
			if !j.due.After(t) && (!j.ok || j.status.Finished.After(t)) {
				out[k]++
			}
		}
	}
	return out
}

// growing reports a backlog that builds up over a phase of n arrivals: its
// mean over the last quarter of the arrival window exceeds n/8. At capacity
// the backlog wanders (its last-quarter mean stayed at or below 31 of 360);
// above it, it grows with every arrival (60 and more of 360 at 1.3x).
func growing(b []float64, n int) bool {
	q := len(b) / 4
	var last float64
	for _, x := range b[len(b)-q:] {
		last += x
	}
	return last/float64(q) > float64(n)/8
}

// serveSchedule draws phase k's seeded schedule at rate over d.
func serveSchedule(seed int64, k int, rate float64, d time.Duration) []arrival {
	return poissonSchedule(seed*31+int64(k), rate, d, serveSpecReps*len(serveMix))
}

func runServe(o options) (report, error) {
	log := func(f string, a ...any) { fmt.Fprintf(o.log, "# "+f+"\n", a...) }
	specs := genSpecs(o.seed, serveMix, serveSpecReps, serveSigma0, serveTenants)
	refs, err := serveReference(specs)
	if err != nil {
		return report{}, err
	}
	env, setup, err := timeSetup(setupReps, func() (*serveEnv, error) { return newServeEnv(o) })
	if err != nil {
		return report{}, err
	}
	defer env.close()
	rep := report{metrics: map[string]float64{"setup_s": setup}, threads: o.nproc, conns: o.nproc}
	count := func(p *phase) {
		rep.attempted += len(p.jobs)
		rep.failed += len(p.jobs) - len(p.good())
	}

	if !o.trace {
		// Each rate's phase holds serveEdgeJobs arrivals and decides
		// rate_ok_per_s; its latency is logged. The other figures come from
		// a closed loop of one client over the rest of the time, so a job's
		// latency is its own path through the stack: open-loop tails at
		// these rates swing by a third from run to run on a shared 2-core
		// host, more than any bound a regression gate could use.
		probe := time.Duration(0)
		for _, rate := range serveRates {
			probe += time.Duration(serveEdgeJobs / rate * float64(time.Second))
		}
		if o.seconds-probe < time.Second {
			return report{}, fmt.Errorf("--seconds %v leaves the closed loop less than 1s after %v of rate phases", o.seconds, probe)
		}
		rep.metrics["rate_ok_per_s"] = 0
		for k, rate := range serveRates {
			p := env.runPhase(serveSchedule(o.seed, k, rate, time.Duration(serveEdgeJobs/rate*float64(time.Second))), specs, refs, o.nproc, log)
			count(p)
			p50, err := quantile(p.latencies(), 0.5)
			if err != nil {
				return report{}, fmt.Errorf("rate %g: %w", rate, err)
			}
			p90, err := quantile(p.latencies(), 0.9)
			if err != nil {
				return report{}, fmt.Errorf("rate %g: %w", rate, err)
			}
			b := p.backlog()
			ok := p90 <= float64(serveLimit)/1e6 && !growing(b, len(p.jobs)) && len(p.good()) == len(p.jobs)
			log("rate %g jobs/s: served %.1f jobs/s, %d jobs, latency p50 %.1f ms p90 %.1f ms, backlog %v, meets limit: %v",
				rate, p.served(), len(p.jobs), p50, p90, b, ok)
			if ok {
				rep.metrics["rate_ok_per_s"] = p.served()
			}
		}
		l := env.closedLoop(specs, refs, o.seconds-probe, log)
		rep.attempted += l.jobs
		rep.failed += l.failed
		return rep, endToEndServe(rep.metrics, l, refs, log)
	}

	// Both passes run at the lowest rate, below capacity even on a loaded
	// host, so the traced pass's own cost does not tip it into overload.
	d := o.seconds / 2
	plain := env.runPhase(serveSchedule(o.seed, 1, serveRates[0], d), specs, refs, o.nproc, log)
	count(plain)
	rec := newRecorder()
	env.setRecorder(rec)
	traced := env.runPhase(serveSchedule(o.seed, 3, serveRates[0], d), specs, refs, o.nproc, log)
	env.setRecorder(nil)
	traced.spans = rec.snapshot()
	count(traced)
	var storeErrors int64
	for _, s := range env.shards {
		storeErrors += s.store.errors.Load()
	}
	rep.metrics["jobstore.errors"] = float64(storeErrors)
	if err := perLayerServe(rep.metrics, plain, traced, refs); err != nil {
		return report{}, err
	}
	zeroLayers(rep.metrics)
	return rep, nil
}

// endToEndServe derives the end-to-end set from the closed loop. Every spec
// ran and matched its reference, so the spec set's effort and residuals are
// the runs'.
func endToEndServe(m map[string]float64, l *loop, refs []serveRef, log func(string, ...any)) error {
	good := l.jobs - l.failed
	if good == 0 {
		return fmt.Errorf("no job succeeded")
	}
	if err := windowQuantiles(m, l.latMs, log); err != nil {
		return err
	}
	m["runs_per_s"] = stats.Median(l.windowRates)
	m["cpu_ms_per_run"] = float64(l.proc.cpu) / 1e6 / float64(l.jobs)
	m["alloc_bytes_per_run"] = float64(l.proc.allocBytes) / float64(l.jobs)
	var evals int64
	residuals := make([]float64, len(refs))
	for i, r := range refs {
		evals += r.evals
		residuals[i] = r.residual
	}
	m["evals_per_run"] = float64(evals) / float64(len(refs))
	m["residual_gmean"] = gmean(residuals)
	return nil
}

// loop is a closed-loop pass over the serve spec set.
type loop struct {
	jobs, failed int
	windowRates  []float64
	latMs        [][]float64 // per window, ms from submission to Finished
	proc         procDelta
}

// closedLoop runs the spec set in order, over and over, through one client,
// which submits a job and polls its result before it sends the next. It
// stops at the end of a window of jobs once dur has passed and
// every spec has run. Every result body is compared with the reference.
func (e *serveEnv) closedLoop(specs []runSpec, refs []serveRef, dur time.Duration, log func(string, ...any)) *loop {
	l := &loop{}
	start := readProc()
	for k := 0; k < len(specs) || time.Since(start.wall) < dur; {
		t0 := time.Now()
		var lat []float64
		for end := k + window; k < end; k++ {
			i := k % len(specs)
			d, err := e.oneJob(specs[i], refs[i].body)
			l.jobs++
			if err != nil {
				l.failed++
				log("job %d: %v", i, err)
				continue
			}
			lat = append(lat, float64(d)/1e6)
		}
		l.latMs = append(l.latMs, lat)
		l.windowRates = append(l.windowRates, window/time.Since(t0).Seconds())
	}
	l.proc = start.to(readProc())
	return l
}

// oneJob submits s, polls until its result is there, checks it, and returns
// the time from submission to the job's Finished stamp.
func (e *serveEnv) oneJob(s runSpec, want []byte) (time.Duration, error) {
	sent := time.Now()
	id, err := e.submit(s)
	if err != nil {
		return 0, err
	}
	j := &jobRecord{id: id}
	for {
		done, err := e.readResult(j, want)
		if err != nil {
			return 0, err
		}
		if done {
			return j.status.Finished.Sub(sent), nil
		}
		time.Sleep(pollEvery)
	}
}

// perLayerServe derives the per-layer set: counters and process costs from
// the untraced phase, times from the traced one's spans and job stamps.
// core.self_ms_per_run stays 0: each jobs.Manager builds its job spaces
// itself, so no wrapper sees a run's sim.batch spans.
func perLayerServe(m map[string]float64, plain, traced *phase, refs []serveRef) error {
	good := plain.good()
	n := float64(len(good))
	if n == 0 {
		return fmt.Errorf("no job succeeded")
	}
	delta := func(name string) float64 {
		return float64(plain.after.Counters[name] - plain.before.Counters[name])
	}
	var iters float64
	var late []float64
	for _, j := range good {
		iters += float64(refs[j.spec].iters)
	}
	for _, j := range plain.jobs {
		late = append(late, float64(j.sent.Sub(j.due))/1e6)
	}
	m["core.iterations_per_run"] = iters / n
	m["proc.allocs_per_iter"] = float64(plain.proc.allocObjs) / iters
	m["proc.gc_cpu_share"] = plain.proc.gcShare
	m["jobs.checkpoints_per_job"] = delta("jobs_checkpoint_writes_total") / n
	m["shard.proxy_errors"] = delta("shard_proxy_error_total")
	batches := delta("sim_batches_total")
	m["sim.batches_per_run"] = batches / n
	if batches > 0 {
		m["sim.points_per_batch"] = delta("sim_draws_total") / batches
	}
	bt := histDelta(plain.before, plain.after, "sched_batch_seconds")
	m["sim.batch_us_p50"] = bt.Quantile(0.5) * 1e6
	m["sim.batch_us_p90"] = bt.Quantile(0.9) * 1e6
	var dispatched float64
	for name := range plain.after.Counters {
		if strings.HasPrefix(name, "sched_tenant_dispatched_total") {
			dispatched += delta(name)
		}
	}
	if tasks := delta("sched_tasks_total"); tasks > 0 {
		m["sched.dispatched_share"] = dispatched / tasks
	}
	if err := putQuantile(m, "loadgen.late_ms_p90", late, 0.9); err != nil {
		return err
	}
	bmax := 0.0
	for _, b := range plain.backlog() {
		bmax = max(bmax, b)
	}
	m["loadgen.backlog_max"] = bmax

	tgood := traced.good()
	if len(tgood) == 0 {
		return fmt.Errorf("no traced job succeeded")
	}
	m["trace.overhead_share"] = float64(traced.proc.cpu)/float64(len(traced.jobs))/(float64(plain.proc.cpu)/float64(len(plain.jobs))) - 1
	var queue, run []float64
	for _, j := range tgood {
		queue = append(queue, float64(j.status.Started.Sub(j.status.Created))/1e6)
		run = append(run, float64(j.status.Finished.Sub(j.status.Started))/1e6)
	}
	if err := putQuantiles(m, "jobs.queue_ms", queue); err != nil {
		return err
	}
	if err := putQuantile(m, "jobs.run_ms_p50", run, 0.5); err != nil {
		return err
	}

	puts := durations(traced.spans, "jobstore.put")
	if err := putQuantiles(m, "jobstore.put_us", puts); err != nil {
		return err
	}
	var putBytes float64
	var requests float64
	for _, s := range traced.spans {
		switch {
		case s.Name == "jobstore.put":
			putBytes += float64(s.N)
		case strings.HasPrefix(s.Name, "serve."):
			requests++
		}
	}
	m["jobstore.puts_per_job"] = float64(len(puts)) / float64(len(traced.jobs))
	m["jobstore.bytes_per_put"] = putBytes / float64(len(puts))
	m["serve.requests_per_job"] = requests / float64(len(traced.jobs))
	for _, k := range []string{"submit", "result"} {
		if err := putQuantile(m, "serve."+k+"_us_p50", durations(traced.spans, "serve."+k), 0.5); err != nil {
			return err
		}
	}
	return putQuantile(m, "shard.proxy_us_p50", proxyTimes(traced.spans), 0.5)
}

// proxyTimes pairs every router span with the shard span of the same job
// and kind that it contains, and returns the router's own share in µs.
func proxyTimes(spans []span) []float64 {
	type key struct{ trace, kind string }
	inner := map[key][]span{}
	for _, s := range spans {
		if kind, ok := strings.CutPrefix(s.Name, "serve."); ok {
			inner[key{s.Trace, kind}] = append(inner[key{s.Trace, kind}], s)
		}
	}
	var out []float64
	for _, s := range spans {
		kind, ok := strings.CutPrefix(s.Name, "shard.")
		if !ok {
			continue
		}
		for _, c := range inner[key{s.Trace, kind}] {
			if c.Start >= s.Start && c.End <= s.End {
				out = append(out, float64(s.dur()-c.dur())/1e3)
				break
			}
		}
	}
	sort.Float64s(out)
	return out
}
