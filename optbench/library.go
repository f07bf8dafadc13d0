package main

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/experiments"
	"repro/internal/obs"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/testfunc"
)

// libWorkload is a workload on the library path: each run builds a
// sim.LocalSpace and calls core.Run, in a closed loop of callers.
type libWorkload struct {
	mix    []shape
	reps   int // runs of each shape per round
	sigma0 float64
	// callers is the closed loop's width; 0 means nproc.
	callers int
	// spin, when positive, is the floating-point work every sampling
	// increment burns through LocalConfig.SampleCost.
	spin int
	// fleet routes sampling through a dist.Coordinator to nproc in-process
	// agents instead of the sched pool.
	fleet bool
	// obsCost adds an obs.SetEnabled(false) pass to the traced mode, for
	// obs.cost_share: instrumentation cost shows only where draws are cheap.
	obsCost bool
}

// solveCheap: draws cost nanoseconds, so the optimizer core, batch
// bookkeeping, sched dispatch and obs counters are the whole cost.
var solveCheap = &libWorkload{
	mix: []shape{
		{alg: "pc", dim: 4, iters: 40}, {alg: "pc", dim: 12, iters: 60},
		{alg: "mn", dim: 4, iters: 40}, {alg: "mn", dim: 12, iters: 60},
		{alg: "det", dim: 4, iters: 60}, {alg: "det", dim: 12, iters: 60},
		{alg: "pso", dim: 4, iters: 8, particles: 12}, {alg: "pso", dim: 12, iters: 8, particles: 12},
	},
	reps:    128,
	sigma0:  5,
	obsCost: true,
}

// solveHeavy: every increment burns a fixed spin, so sched's parallel
// execution of wide batches (swarms, speculative steps) carries the time.
var solveHeavy = &libWorkload{
	mix: []shape{
		{alg: "pso", dim: 4, iters: 4, particles: 16},
		{alg: "pc", dim: 8, iters: 12, speculative: true},
	},
	reps:    256,
	sigma0:  5,
	callers: 1,
	spin:    20000,
}

// fleetCheap: the cheap runs again, but every batch is one coordinator
// dispatch and TCP round trip to the agents.
var fleetCheap = &libWorkload{
	mix: []shape{
		{alg: "pc", dim: 4, iters: 30},
		{alg: "pso", dim: 4, iters: 4, particles: 8},
	},
	reps:   512,
	sigma0: 5,
	fleet:  true,
}

// libEnv is a built environment: the shared pool, or the coordinator with
// its agents.
type libEnv struct {
	pool  *sched.Scheduler
	coord *dist.Coordinator
	stop  context.CancelFunc
	wg    sync.WaitGroup
	cost  func([]float64, float64)
	// busy accumulates the cost hook's time in the traced pass, for
	// sched.worker_util.
	busy atomic.Int64
}

func (w *libWorkload) newEnv(o options) (*libEnv, error) {
	e := &libEnv{}
	if w.spin > 0 {
		e.cost = experiments.SpinCost(w.spin)
	}
	if !w.fleet {
		e.pool = sched.New(sched.Config{Workers: o.nproc})
	} else {
		e.coord = dist.NewCoordinator(dist.Config{})
		if err := e.coord.Listen("127.0.0.1:0"); err != nil {
			e.coord.Close()
			return nil, err
		}
		ctx, cancel := context.WithCancel(context.Background())
		e.stop = cancel
		for i := 0; i < o.nproc; i++ {
			wk := dist.NewWorker(dist.WorkerConfig{Addr: e.coord.Addr().String(), Name: fmt.Sprintf("agent%d", i), Capacity: 1})
			e.wg.Add(1)
			go func() {
				defer e.wg.Done()
				_ = wk.Run(ctx) // ends with ctx.Err() when the environment closes
			}()
		}
		wctx, wcancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer wcancel()
		if err := e.coord.WaitWorkers(wctx, o.nproc); err != nil {
			e.close()
			return nil, fmt.Errorf("fleet handshake: %w", err)
		}
	}
	// Warm-up: three seed-independent runs of every shape, so pools, agents and
	// the heap are in their steady state before anything is timed.
	for _, s := range genSpecs(0, w.mix, 3, w.sigma0, 0) {
		if _, err := e.runOne(context.Background(), s, nil, ""); err != nil {
			e.close()
			return nil, fmt.Errorf("warm-up: %w", err)
		}
	}
	return e, nil
}

func (e *libEnv) close() {
	if e.pool != nil {
		e.pool.Close()
	}
	if e.coord != nil {
		e.stop()
		e.coord.Close()
		e.wg.Wait()
	}
}

// runOne executes one run on the environment. With a recorder it records
// the run's core.run span and wraps the space (and fleet) so the layers
// below record theirs.
func (e *libEnv) runOne(ctx context.Context, s runSpec, rec *recorder, trace string) (*core.Result, error) {
	rs, err := s.coreSpec()
	if err != nil {
		return nil, err
	}
	root := -1
	if rec != nil {
		root = rec.begin(trace, "core.run", -1)
		defer rec.end(root, 1)
	}
	cfg := sim.LocalConfig{
		Dim:      s.Dim,
		F:        testfunc.Rosenbrock,
		Sigma0:   sim.ConstSigma(s.Sigma0),
		Seed:     s.Seed,
		Parallel: true,
	}
	var tf *tracedFleet
	switch {
	case e.coord != nil:
		cfg.FleetObjective = objective
		cfg.Fleet = e.coord
		if rec != nil {
			tf = &tracedFleet{inner: e.coord}
			cfg.Fleet = tf
		}
	default:
		cfg.Pool = e.pool
		cfg.SampleCost = e.cost
		if rec != nil && e.cost != nil {
			cfg.SampleCost = func(x []float64, dt float64) {
				t0 := time.Now()
				e.cost(x, dt)
				e.busy.Add(int64(time.Since(t0)))
			}
		}
	}
	ls := sim.NewLocalSpace(cfg)
	defer ls.Close()
	var space sim.Space = ls
	if rec != nil {
		ts := &tracedSpace{LocalSpace: ls, rec: rec, trace: trace, root: root}
		if tf != nil {
			tf.space = ts
		}
		space = ts
	}
	return core.Run(ctx, space, rs)
}

// reference runs every spec on the repository's reference semantics: a
// 1-worker pool, no cost hook, no fleet.
func reference(specs []runSpec) ([]fingerprint, error) {
	out := make([]fingerprint, len(specs))
	for i, s := range specs {
		rs, err := s.coreSpec()
		if err != nil {
			return nil, err
		}
		ls := sim.NewLocalSpace(sim.LocalConfig{
			Dim: s.Dim, F: testfunc.Rosenbrock, Sigma0: sim.ConstSigma(s.Sigma0),
			Seed: s.Seed, Parallel: true, Workers: 1,
		})
		res, err := core.Run(context.Background(), ls, rs)
		ls.Close()
		if err != nil {
			return nil, fmt.Errorf("reference run %d: %w", i, err)
		}
		out[i] = fingerprintOf(res)
	}
	return out, nil
}

// libPass is one measured pass over the spec set.
type libPass struct {
	runs, failed int
	windowRates  []float64   // runs/s of each complete window
	latMs        [][]float64 // per window, ms from building the space to the result
	iters, evals int64
	residuals    []float64
	proc         procDelta
	before       obs.Snapshot
	after        obs.Snapshot
	dispatched   uint64
	spans        []span
	busy         time.Duration
}

// pass runs rounds of the whole spec set in a closed loop until dur has
// passed and at least one window of runs is complete. Rates and latencies
// are kept per window of completed runs, rounds only decide where the pass
// may stop, so the pass's effort and residuals cover whole spec sets. Every
// result is checked against its reference fingerprint.
func (e *libEnv) pass(specs []runSpec, refs []fingerprint, dur time.Duration, rec *recorder, callers int, log func(string, ...any)) (libPass, error) {
	var p libPass
	var mu sync.Mutex
	var d0 uint64
	if e.pool != nil {
		d0 = e.pool.Dispatched()
	}
	e.busy.Store(0)
	p.before = obs.Default().Snapshot()
	start := readProc()
	seq := 0
	p.latMs = [][]float64{nil}
	w0 := start.wall
	for {
		var next atomic.Int64
		var wg sync.WaitGroup
		for c := 0; c < callers; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					i := int(next.Add(1) - 1)
					if i >= len(specs) {
						return
					}
					var trace string
					if rec != nil {
						mu.Lock()
						seq++
						trace = fmt.Sprintf("run%d", seq)
						mu.Unlock()
					}
					r0 := time.Now()
					res, err := e.runOne(context.Background(), specs[i], rec, trace)
					lat := time.Since(r0)
					mu.Lock()
					p.runs++
					switch {
					case err != nil:
						p.failed++
						log("run %d (%s dim %d): %v", i, specs[i].Alg, specs[i].Dim, err)
					case !fingerprintOf(res).equal(refs[i]):
						p.failed++
						log("run %d (%s dim %d): result differs from the reference", i, specs[i].Alg, specs[i].Dim)
					default:
						w := &p.latMs[len(p.latMs)-1]
						*w = append(*w, float64(lat)/1e6)
						if len(*w) == window {
							now := time.Now()
							p.windowRates = append(p.windowRates, window/now.Sub(w0).Seconds())
							w0 = now
							p.latMs = append(p.latMs, nil)
						}
						p.iters += int64(res.Iterations)
						p.evals += res.Evaluations
						p.residuals = append(p.residuals, residual(res))
					}
					mu.Unlock()
				}
			}()
		}
		wg.Wait()
		el := time.Since(start.wall)
		if el >= dur && len(p.windowRates) > 0 {
			break
		}
		if el > 4*dur+10*time.Second {
			return p, fmt.Errorf("pass made only %d runs in %v; a window needs %d", p.runs, el, window)
		}
	}
	p.latMs = p.latMs[:len(p.windowRates)] // the last window is incomplete
	p.proc = start.to(readProc())
	p.after = obs.Default().Snapshot()
	if e.pool != nil {
		p.dispatched = e.pool.Dispatched() - d0
	}
	p.busy = time.Duration(e.busy.Load())
	if rec != nil {
		p.spans = rec.snapshot()
	}
	return p, nil
}

func (p libPass) good() int { return p.runs - p.failed }

// runLibrary drives a library-path workload through set-up and its passes
// and derives the metrics of the requested set.
func runLibrary(w *libWorkload, o options) (report, error) {
	log := func(f string, a ...any) { fmt.Fprintf(o.log, "# "+f+"\n", a...) }
	callers := w.callers
	if callers == 0 {
		callers = o.nproc
	}
	specs := genSpecs(o.seed, w.mix, w.reps, w.sigma0, 0)
	refs, err := reference(specs)
	if err != nil {
		return report{}, err
	}
	env, setup, err := timeSetup(setupReps, func() (*libEnv, error) { return w.newEnv(o) })
	if err != nil {
		return report{}, err
	}
	defer env.close()

	rep := report{metrics: map[string]float64{"setup_s": setup}, threads: callers}
	if w.fleet {
		rep.conns = o.nproc
	}
	if !o.trace {
		var p libPass
		if p, err = env.pass(specs, refs, o.seconds, nil, callers, log); err != nil {
			return report{}, err
		}
		rep.attempted, rep.failed = p.runs, p.failed
		return rep, endToEndLib(rep.metrics, p, log)
	}

	// Traced mode: an untraced pass, an obs-disabled pass on solve-cheap,
	// and the traced pass, splitting the measured time between them. All
	// three check every result against the same reference, so they are
	// bitwise equal to each other.
	share := o.seconds / 2
	if w.obsCost {
		share = o.seconds / 3
	}
	plain, err := env.pass(specs, refs, share, nil, callers, log)
	if err != nil {
		return report{}, err
	}
	passes := []libPass{plain}
	if w.obsCost {
		var off libPass
		obs.SetEnabled(false)
		off, err = env.pass(specs, refs, share, nil, callers, log)
		obs.SetEnabled(true)
		if err != nil {
			return report{}, err
		}
		passes = append(passes, off)
		rep.metrics["obs.cost_share"] = 1 - stats.Median(plain.windowRates)/stats.Median(off.windowRates)
	}
	rec := newRecorder()
	traced, err := env.pass(specs, refs, share, rec, callers, log)
	if err != nil {
		return report{}, err
	}
	passes = append(passes, traced)
	for _, p := range passes {
		rep.attempted += p.runs
		rep.failed += p.failed
	}
	if err := perLayerLib(rep.metrics, plain, traced, env); err != nil {
		return report{}, err
	}
	zeroLayers(rep.metrics)
	return rep, nil
}

// endToEndLib derives the end-to-end set from an untraced pass.
func endToEndLib(m map[string]float64, p libPass, log func(string, ...any)) error {
	n := float64(p.good())
	if n == 0 {
		return fmt.Errorf("no run succeeded")
	}
	if err := windowQuantiles(m, p.latMs, log); err != nil {
		return err
	}
	m["runs_per_s"] = stats.Median(p.windowRates)
	// A closed loop offers only what it is served, so the highest rate met
	// is the rate served.
	m["rate_ok_per_s"] = m["runs_per_s"]
	m["cpu_ms_per_run"] = float64(p.proc.cpu) / 1e6 / float64(p.runs)
	m["alloc_bytes_per_run"] = float64(p.proc.allocBytes) / float64(p.runs)
	m["evals_per_run"] = float64(p.evals) / n
	m["residual_gmean"] = gmean(p.residuals)
	return nil
}

// perLayerLib derives the per-layer set: process and obs counters from the
// untraced pass, span times from the traced one.
func perLayerLib(m map[string]float64, plain, traced libPass, env *libEnv) error {
	runs := float64(plain.good())
	iters := float64(plain.iters)
	m["core.iterations_per_run"] = iters / runs
	m["proc.allocs_per_iter"] = float64(plain.proc.allocObjs) / iters
	m["proc.gc_cpu_share"] = plain.proc.gcShare
	m["trace.overhead_share"] = float64(traced.proc.cpu)/float64(traced.runs)/(float64(plain.proc.cpu)/float64(plain.runs)) - 1

	spans := traced.spans
	self := selfTimes(spans)
	if err := checkSelfSums(spans, self); err != nil {
		return err
	}
	var coreSelf int64
	var batches, points float64
	for i, s := range spans {
		switch s.Name {
		case "core.run":
			coreSelf += self[i]
		case "sim.batch":
			batches++
			points += float64(s.N)
		}
	}
	truns := float64(traced.good())
	m["core.self_ms_per_run"] = float64(coreSelf) / 1e6 / truns
	m["sim.batches_per_run"] = batches / truns
	m["sim.points_per_batch"] = points / batches
	if err := putQuantiles(m, "sim.batch_us", durations(spans, "sim.batch")); err != nil {
		return err
	}

	delta := func(name string) float64 {
		return float64(plain.after.Counters[name] - plain.before.Counters[name])
	}
	if env.pool != nil {
		if tasks := delta("sched_tasks_total"); tasks > 0 {
			m["sched.dispatched_share"] = float64(plain.dispatched) / tasks
		}
	}
	if env.cost != nil {
		m["sched.worker_util"] = float64(traced.busy) / (float64(traced.proc.wall) * float64(env.pool.Workers()))
		m["sched.task_busy_ms_per_run"] = float64(traced.busy) / 1e6 / truns
		if m["sched.worker_util"] > 1 {
			return fmt.Errorf("sched.worker_util %.3f exceeds 1: the busy-time accounting is wrong", m["sched.worker_util"])
		}
	}
	if env.coord != nil {
		calls := durations(spans, "dist.call")
		if err := putQuantiles(m, "dist.call_us", calls); err != nil {
			return err
		}
		var frames, bytes float64
		for _, codec := range []string{"json", "binary"} {
			frames += delta(`dist_frames_total{codec="` + codec + `",dir="tx"}`)
			bytes += delta(`dist_bytes_total{codec="` + codec + `",dir="tx"}`)
		}
		// The untraced pass made as many calls per run as the traced one.
		callsPlain := float64(len(calls)) / truns * runs
		m["dist.frames_per_call"] = frames / callsPlain
		m["dist.bytes_per_frame"] = bytes / frames
		m["dist.rtt_us_p50"] = histDelta(plain.before, plain.after, "dist_dispatch_rtt_seconds").Quantile(0.5) * 1e6
		m["dist.redispatch"] = delta("dist_redispatch_total")
	}
	return nil
}

// windowQuantiles stores latency_p50_ms and latency_p90_ms: each the
// median, over the pass's windows, of that window's percentile. Every
// window must hold enough samples for its p90, and the median over windows
// keeps a stalled stretch from moving the figure.
func windowQuantiles(m map[string]float64, windows [][]float64, log func(string, ...any)) error {
	n, least := 0, -1
	for _, w := range windows {
		n += len(w)
		if least < 0 || len(w) < least {
			least = len(w)
		}
	}
	log("latency: %d samples in %d windows of at least %d", n, len(windows), least)
	for name, q := range map[string]float64{"latency_p50_ms": 0.5, "latency_p90_ms": 0.9} {
		var per []float64
		for _, w := range windows {
			v, err := quantile(w, q)
			if err != nil {
				return fmt.Errorf("%s: %w", name, err)
			}
			per = append(per, v)
		}
		m[name] = stats.Median(per)
	}
	return nil
}

// putQuantiles stores the p50 and p90 of xs under prefix_p50 and prefix_p90.
func putQuantiles(m map[string]float64, prefix string, xs []float64) error {
	if err := putQuantile(m, prefix+"_p50", xs, 0.5); err != nil {
		return err
	}
	return putQuantile(m, prefix+"_p90", xs, 0.9)
}

// putQuantile stores the q-quantile of xs under name.
func putQuantile(m map[string]float64, name string, xs []float64, q float64) error {
	v, err := quantile(xs, q)
	if err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	m[name] = v
	return nil
}

// histDelta is the distribution of the observations a histogram took
// between two snapshots.
func histDelta(before, after obs.Snapshot, name string) obs.HistogramView {
	a := after.Histograms[name]
	b, ok := before.Histograms[name]
	if !ok {
		return a
	}
	d := obs.HistogramView{Bounds: a.Bounds, Counts: make([]uint64, len(a.Counts)), Sum: a.Sum - b.Sum}
	for i := range a.Counts {
		d.Counts[i] = a.Counts[i] - b.Counts[i]
		d.Count += d.Counts[i]
	}
	return d
}
