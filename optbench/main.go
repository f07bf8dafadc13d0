// Command optbench is the repository's benchmark: one process that drives
// the optimizer stack through a seeded workload, times it end to end at the
// public entry points, checks every result against an in-process reference,
// and, in a separate traced pass, breaks the time down by layer.
//
// Run it from the repository root through its build script:
//
//	bash optbench/run.sh --workload solve-cheap --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. With --trace 0 the metrics are the
// end-to-end set, with --trace 1 the per-layer set (see metrics.go). Lines
// before it print the environment and every metric with its unit.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"

	"repro/internal/stats"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// options are the command's inputs, shared by every workload.
type options struct {
	seed    int64
	seconds time.Duration
	trace   bool
	workdir string
	log     io.Writer
	// nproc bounds the load generator: closed-loop callers, fleet agents
	// and HTTP connections.
	nproc int
}

// output is the command's last line.
type output struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is what a workload hands back: every metric it measured, keyed by
// name, and the run counts behind error_rate.
type report struct {
	metrics   map[string]float64
	attempted int
	failed    int
	// threads and conns are the load generator's concurrency, checked
	// against nproc.
	threads, conns int
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("optbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: "+workloadNames())
	seed := fs.Int64("seed", 1, "seed of the generated runs")
	seconds := fs.Float64("seconds", 10, "measured seconds per run of the command")
	trace := fs.Int("trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics from a traced pass")
	workdir := fs.String("workdir", ".bench_build", "directory for the serve workload's job stores")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	wl, ok := workloads[*name]
	if !ok {
		fmt.Fprintf(stderr, "optbench: unknown workload %q (want one of %s)\n", *name, workloadNames())
		return 2
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "optbench: --seconds must be positive and --trace 0 or 1")
		return 2
	}
	opt := options{
		seed:    *seed,
		seconds: time.Duration(*seconds * float64(time.Second)),
		trace:   *trace == 1,
		workdir: *workdir,
		log:     stdout,
		nproc:   runtime.NumCPU(),
	}
	fmt.Fprintf(stdout, "# optbench workload=%s seed=%d seconds=%g trace=%d num_cpu=%d GOMAXPROCS=%d go=%s\n",
		*name, *seed, *seconds, *trace, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version())
	rep, err := wl(opt)
	if err != nil {
		fmt.Fprintf(stderr, "optbench: %s: %v\n", *name, err)
		return 1
	}
	out, err := finish(rep, opt, stdout)
	if err != nil {
		fmt.Fprintf(stderr, "optbench: %s: %v\n", *name, err)
		return 1
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintf(stderr, "optbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !out.Correct {
		fmt.Fprintf(stderr, "optbench: %s: %d of %d runs failed or returned a wrong result\n", *name, out.Failed, out.Attempted)
		return 1
	}
	return 0
}

// finish checks the generator's bounds, prints every metric with its unit,
// and selects the set the trace mode reports.
func finish(rep report, opt options, w io.Writer) (output, error) {
	if rep.threads > opt.nproc || rep.conns > opt.nproc {
		return output{}, fmt.Errorf("load generator used %d threads and %d connections, more than nproc=%d", rep.threads, rep.conns, opt.nproc)
	}
	if rep.attempted < 1 {
		return output{}, errors.New("no runs attempted")
	}
	fmt.Fprintf(w, "# generator_threads=%d generator_conns=%d attempted=%d failed=%d error_rate=%g share\n",
		rep.threads, rep.conns, rep.attempted, rep.failed, float64(rep.failed)/float64(rep.attempted))
	defs := endToEnd
	if opt.trace {
		defs = perLayer
	}
	out := output{Correct: rep.failed == 0, Attempted: rep.attempted, Failed: rep.failed, Metrics: map[string]metricValue{}}
	for _, d := range defs {
		v, ok := rep.metrics[d.name]
		if !ok {
			return output{}, fmt.Errorf("metric %s was not measured", d.name)
		}
		out.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	names := make([]string, 0, len(rep.metrics))
	for n := range rep.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "%-28s %14.6g %s\n", n, rep.metrics[n], unitOf(n))
	}
	return out, nil
}

// procStat is a reading of the process-wide counters a pass is charged
// with: CPU time, heap allocation, and GC CPU.
type procStat struct {
	wall       time.Time
	cpu        time.Duration
	allocBytes uint64
	allocObjs  uint64
	gcCPU      float64
	totalCPU   float64
}

func readProc() procStat {
	var ru syscall.Rusage
	// Getrusage(RUSAGE_SELF) cannot fail with a valid pointer.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	ms := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/gc/heap/allocs:objects"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(ms)
	return procStat{
		wall:       time.Now(),
		cpu:        time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		allocBytes: ms[0].Value.Uint64(),
		allocObjs:  ms[1].Value.Uint64(),
		gcCPU:      ms[2].Value.Float64(),
		totalCPU:   ms[3].Value.Float64(),
	}
}

// procDelta is what a pass cost the process.
type procDelta struct {
	wall       time.Duration
	cpu        time.Duration
	allocBytes uint64
	allocObjs  uint64
	gcShare    float64
}

func (a procStat) to(b procStat) procDelta {
	d := procDelta{
		wall:       b.wall.Sub(a.wall),
		cpu:        b.cpu - a.cpu,
		allocBytes: b.allocBytes - a.allocBytes,
		allocObjs:  b.allocObjs - a.allocObjs,
	}
	if t := b.totalCPU - a.totalCPU; t > 0 {
		d.gcShare = (b.gcCPU - a.gcCPU) / t
	}
	return d
}

// timeSetup builds an environment reps times and returns the last one with
// the median build time in seconds. Earlier builds are closed.
func timeSetup[E interface{ close() }](reps int, build func() (E, error)) (E, float64, error) {
	var env E
	var times []float64
	for i := 0; i < reps; i++ {
		t0 := time.Now()
		e, err := build()
		if err != nil {
			return env, 0, fmt.Errorf("set-up: %w", err)
		}
		times = append(times, time.Since(t0).Seconds())
		if i < reps-1 {
			e.close()
		} else {
			env = e
		}
	}
	return env, stats.Median(times), nil
}

// setupReps is how many times a run of the command builds its workload's
// environment; setup_s is the median.
const setupReps = 15
