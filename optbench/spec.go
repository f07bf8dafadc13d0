package main

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/jobs"
	"repro/internal/testfunc"
)

// runSpec is one generated optimization run. It is the only input the stack
// under test receives: the library workloads turn it into a core.RunSpec on
// a fresh sim.LocalSpace, the serve workload posts it as a jobs.Spec.
type runSpec struct {
	Alg         string // strategy registry name: pc, mn, det or pso
	Dim         int
	Sigma0      float64
	Seed        int64
	Iters       int // simplex iteration cap, or swarm updates for pso
	Particles   int // swarm size for pso
	Speculative bool
	Tenant      string
}

// shape is one entry of a workload's run mix; genSpecs draws seeds for it.
type shape struct {
	alg         string
	dim         int
	iters       int
	particles   int
	speculative bool
}

// objective is the noisy objective every workload optimizes. Its minimum is
// 0, so a result's residual is f(BestX) itself.
const objective = "rosenbrock"

// genSpecs draws reps runs of every shape from seed, in a seeded order, and
// labels them with tenants round-robin. Mix and sizes are fixed per
// workload, so only the noise and start points depend on the seed.
func genSpecs(seed int64, mix []shape, reps int, sigma0 float64, tenants int) []runSpec {
	rng := rand.New(rand.NewSource(seed))
	var out []runSpec
	for r := 0; r < reps; r++ {
		for _, s := range mix {
			out = append(out, runSpec{
				Alg:         s.alg,
				Dim:         s.dim,
				Sigma0:      sigma0,
				Seed:        1 + rng.Int63n(1<<40), // serve treats seed 0 as "use the default"
				Iters:       s.iters,
				Particles:   s.particles,
				Speculative: s.speculative,
			})
		}
	}
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	for i := range out {
		if tenants > 0 {
			out[i].Tenant = fmt.Sprintf("team%d", i%tenants)
		}
	}
	return out
}

// coreSpec is the library form of the run: a fixed iteration cap with the
// tolerance criterion off, so every run of a shape does the same number of
// steps.
func (r runSpec) coreSpec() (core.RunSpec, error) {
	alg := core.PC
	if r.Alg != "pso" {
		a, err := core.ParseAlgorithm(r.Alg)
		if err != nil {
			return core.RunSpec{}, err
		}
		alg = a
	}
	cfg := core.DefaultConfig(alg)
	cfg.Tol = 0
	cfg.MaxWalltime = 1e12
	cfg.MaxIterations = r.Iters
	cfg.Speculative = r.Speculative
	return core.RunSpec{
		Strategy:   r.Alg,
		Config:     cfg,
		Seed:       r.Seed,
		Lo:         -5,
		Hi:         5,
		HasBox:     true,
		Particles:  r.Particles,
		SwarmIters: r.Iters,
	}, nil
}

// jobSpec is the service form of the same run.
func (r runSpec) jobSpec() jobs.Spec {
	s := jobs.Spec{
		Tenant:      r.Tenant,
		Objective:   objective,
		Dim:         r.Dim,
		Algorithm:   r.Alg,
		Sigma0:      r.Sigma0,
		Seed:        r.Seed,
		Budget:      1e12,
		Tol:         -1,
		Speculative: r.Speculative,
	}
	if r.Alg == "pso" {
		s.Particles = r.Particles
		s.SwarmIterations = r.Iters
	} else {
		s.MaxIterations = r.Iters
	}
	return s
}

// fingerprint is the part of a result that must be bitwise identical to the
// reference run: the best point's bits, its estimate's bits, and the
// paper's two effort counts.
type fingerprint struct {
	BestX       []uint64
	BestG       uint64
	Iterations  int
	Evaluations int64
}

func fingerprintOf(r *core.Result) fingerprint {
	f := fingerprint{
		BestX:       make([]uint64, len(r.BestX)),
		BestG:       math.Float64bits(r.BestG),
		Iterations:  r.Iterations,
		Evaluations: r.Evaluations,
	}
	for i, x := range r.BestX {
		f.BestX[i] = math.Float64bits(x)
	}
	return f
}

func (f fingerprint) equal(g fingerprint) bool {
	if f.BestG != g.BestG || f.Iterations != g.Iterations || f.Evaluations != g.Evaluations || len(f.BestX) != len(g.BestX) {
		return false
	}
	for i := range f.BestX {
		if f.BestX[i] != g.BestX[i] {
			return false
		}
	}
	return true
}

// residual is the noise-free objective at the result's best point minus the
// objective's minimum (0 for Rosenbrock).
func residual(r *core.Result) float64 { return testfunc.Rosenbrock(r.BestX) }

// gmean is the geometric mean of positive values. Residuals of different
// strategies differ by orders of magnitude, so a median over a mixed set
// lands on whichever strategy straddles the middle and jumps between seeds;
// the mean of the logarithms weighs every run.
func gmean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += math.Log(x)
	}
	return math.Exp(s / float64(len(xs)))
}

// minBeyond is how many samples must lie above a reported percentile, so a
// tail value is never one or two outliers.
const minBeyond = 10

// window is how many runs one measurement window holds, 12 beyond its p90.
// Rates and latency quantiles are taken per window and the median over
// windows is reported, so a burst of load from elsewhere on the host moves
// few of them.
const window = 120

// quantile returns the nearest-rank q-quantile of xs. It fails unless at
// least minBeyond samples lie above the rank, so a p90 needs 100 samples.
func quantile(xs []float64, q float64) (float64, error) {
	n := len(xs)
	rank := int(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if n-rank < minBeyond {
		return 0, fmt.Errorf("p%g needs %d samples beyond it, have %d of %d", q*100, minBeyond, n-rank, n)
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rank-1], nil
}

// arrival is one open-loop submission: when it is due, relative to the
// phase start, and which spec it sends.
type arrival struct {
	Due  time.Duration
	Spec int
}

// poissonSchedule draws a seeded open-loop schedule of round(rate*d)
// arrivals over d: a Poisson process conditioned on its count, so the
// offered load is the same for every seed and only the timing varies.
// Arrival k sends spec k mod specs, so the mix is the same in every phase.
func poissonSchedule(seed int64, rate float64, d time.Duration, specs int) []arrival {
	rng := rand.New(rand.NewSource(seed))
	n := int(math.Round(rate * d.Seconds()))
	out := make([]arrival, n)
	for i := range out {
		out[i].Due = time.Duration(rng.Float64() * float64(d))
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Due < out[j].Due })
	for i := range out {
		out[i].Spec = i % specs
	}
	return out
}
