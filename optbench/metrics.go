package main

import (
	"sort"
	"strings"
)

// metricDef names a reported metric and its unit. BENCHMARK.json lists the
// same names, units and directions; a test keeps the two in step.
type metricDef struct {
	name   string
	unit   string
	better string
}

// endToEnd is what a user of the stack sees, reported by every workload.
// error_rate is not among them: it is the output's failed/attempted, and a
// correct run reports it as 0.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"runs_per_s", "runs/s", "higher"},
	{"latency_p50_ms", "ms", "lower"},
	{"latency_p90_ms", "ms", "lower"},
	{"rate_ok_per_s", "runs/s", "higher"},
	{"cpu_ms_per_run", "ms", "lower"},
	{"alloc_bytes_per_run", "B", "lower"},
	{"evals_per_run", "increments", "lower"},
	{"residual_gmean", "objective", "lower"},
}

// perLayer is what the traced pass measures at each layer boundary. A layer
// that a workload bypasses reports 0 there. The end-to-end metric each one
// should move, and on which workload, is in the package's README.md.
var perLayer = []metricDef{
	{"core.self_ms_per_run", "ms", "lower"},
	{"core.iterations_per_run", "iterations", "lower"},
	{"proc.allocs_per_iter", "allocs", "lower"},
	{"proc.gc_cpu_share", "share", "lower"},
	{"sim.batches_per_run", "batches", "lower"},
	{"sim.points_per_batch", "points", "higher"},
	{"sim.batch_us_p50", "us", "lower"},
	{"sim.batch_us_p90", "us", "lower"},
	{"sched.dispatched_share", "share", "lower"},
	{"sched.worker_util", "share", "higher"},
	{"sched.task_busy_ms_per_run", "ms", "lower"},
	{"obs.cost_share", "share", "lower"},
	{"dist.call_us_p50", "us", "lower"},
	{"dist.call_us_p90", "us", "lower"},
	{"dist.frames_per_call", "frames", "lower"},
	{"dist.bytes_per_frame", "B", "lower"},
	{"dist.rtt_us_p50", "us", "lower"},
	{"dist.redispatch", "count", "lower"},
	{"jobs.queue_ms_p50", "ms", "lower"},
	{"jobs.queue_ms_p90", "ms", "lower"},
	{"jobs.run_ms_p50", "ms", "lower"},
	{"jobs.checkpoints_per_job", "count", "lower"},
	{"jobstore.put_us_p50", "us", "lower"},
	{"jobstore.put_us_p90", "us", "lower"},
	{"jobstore.puts_per_job", "count", "lower"},
	{"jobstore.bytes_per_put", "B", "lower"},
	{"jobstore.errors", "count", "lower"},
	{"serve.submit_us_p50", "us", "lower"},
	{"serve.result_us_p50", "us", "lower"},
	{"serve.requests_per_job", "count", "lower"},
	{"shard.proxy_us_p50", "us", "lower"},
	{"shard.proxy_errors", "count", "lower"},
	{"loadgen.late_ms_p90", "ms", "lower"},
	{"loadgen.backlog_max", "jobs", "lower"},
	{"trace.overhead_share", "share", "lower"},
}

func unitOf(name string) string {
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range defs {
			if d.name == name {
				return d.unit
			}
		}
	}
	return ""
}

// zeroLayers sets every per-layer metric the workload did not measure to 0:
// the workload bypasses that layer.
func zeroLayers(m map[string]float64) {
	for _, d := range perLayer {
		if _, ok := m[d.name]; !ok {
			m[d.name] = 0
		}
	}
}

// workloads maps each --workload name to the function that runs it.
var workloads = map[string]func(options) (report, error){
	"solve-cheap": func(o options) (report, error) { return runLibrary(solveCheap, o) },
	"solve-heavy": func(o options) (report, error) { return runLibrary(solveHeavy, o) },
	"fleet":       func(o options) (report, error) { return runLibrary(fleetCheap, o) },
	"serve":       runServe,
}

func workloadNames() string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return strings.Join(names, ", ")
}
