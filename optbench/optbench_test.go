package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"
)

func TestQuantileNeedsTenSamplesBeyond(t *testing.T) {
	xs := make([]float64, 99)
	for i := range xs {
		xs[i] = float64(len(xs) - i) // descending, so quantile must sort
	}
	if _, err := quantile(xs, 0.9); err == nil || !strings.Contains(err.Error(), "have 9 of 99") {
		t.Fatalf("p90 of 99 samples: err = %v, want the count of samples beyond it", err)
	}
	xs = append(xs, 100)
	v, err := quantile(xs, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	if v != 90 {
		t.Fatalf("p90 of 1..100 = %v, want 90 (10 samples beyond it)", v)
	}
	if v, err := quantile(xs[:20], 0.5); err != nil || v != 89 {
		t.Fatalf("p50 of 99..80 = %v, %v; want 89 (10 samples beyond it), nil", v, err)
	}
	if _, err := quantile(xs[:19], 0.5); err == nil {
		t.Fatal("p50 of 19 samples has only 9 beyond it and must fail")
	}
}

func TestSelfTimesFromNestedSpans(t *testing.T) {
	spans := []span{
		{Trace: "r", Name: "core.run", Start: 0, End: 100, Parent: -1},
		{Trace: "r", Name: "sim.batch", Start: 10, End: 40, Parent: 0},
		{Trace: "r", Name: "dist.call", Start: 20, End: 30, Parent: 1},
		{Trace: "r", Name: "sim.batch", Start: 50, End: 60, Parent: 0},
		{Trace: "q", Name: "core.run", Start: 5, End: 15, Parent: -1},
	}
	self := selfTimes(spans)
	if want := []int64{60, 20, 10, 10, 10}; !reflect.DeepEqual(self, want) {
		t.Fatalf("self times = %v, want %v", self, want)
	}
	if err := checkSelfSums(spans, self); err != nil {
		t.Fatal(err)
	}

	// Overlapping siblings are covered once in the parent's self time but
	// counted twice below it, so the subtree no longer sums to the root.
	spans[3].Start = 35
	self = selfTimes(spans)
	if self[0] != 50 {
		t.Fatalf("root self with overlapping children = %d, want 50", self[0])
	}
	if err := checkSelfSums(spans, self); err == nil {
		t.Fatal("overlapping sibling spans must fail the self-time sum check")
	}

	// A child that outlives its parent is clipped to it.
	spans[3] = span{Trace: "r", Name: "sim.batch", Start: 90, End: 120, Parent: 0}
	if got := selfTimes(spans)[0]; got != 60 {
		t.Fatalf("root self with a clipped child = %d, want 60", got)
	}
}

func TestPoissonScheduleReproducible(t *testing.T) {
	a := poissonSchedule(7, 150, 2*time.Second, 48)
	b := poissonSchedule(7, 150, 2*time.Second, 48)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed gave two different schedules")
	}
	if len(a) != 300 {
		t.Fatalf("%d arrivals, want rate*d = 300", len(a))
	}
	for i, x := range a {
		if x.Due < 0 || x.Due >= 2*time.Second || (i > 0 && x.Due < a[i-1].Due) {
			t.Fatalf("arrival %d due at %v: not sorted within the phase", i, x.Due)
		}
		if x.Spec != i%48 {
			t.Fatalf("arrival %d sends spec %d, want %d", i, x.Spec, i%48)
		}
	}
	if c := poissonSchedule(8, 150, 2*time.Second, 48); reflect.DeepEqual(a, c) {
		t.Fatal("different seeds gave the same schedule")
	}
	if !reflect.DeepEqual(genSpecs(3, serveMix, 4, 5, 4), genSpecs(3, serveMix, 4, 5, 4)) {
		t.Fatal("the same seed gave two different spec sets")
	}
}

func TestFingerprintCatchesOneULP(t *testing.T) {
	ref := fingerprint{BestX: []uint64{math.Float64bits(1.5), math.Float64bits(-0.25)}, BestG: math.Float64bits(3.75), Iterations: 40, Evaluations: 400}
	same := ref
	same.BestX = append([]uint64(nil), ref.BestX...)
	if !ref.equal(same) {
		t.Fatal("identical fingerprints compare unequal")
	}
	ulp := func(bits uint64) uint64 {
		f := math.Float64frombits(bits)
		return math.Float64bits(math.Nextafter(f, math.Inf(1)))
	}
	x := same
	x.BestX = []uint64{ref.BestX[0], ulp(ref.BestX[1])}
	g := same
	g.BestG = ulp(ref.BestG)
	n := same
	n.Evaluations++
	for name, f := range map[string]fingerprint{"BestX": x, "BestG": g, "Evaluations": n} {
		if ref.equal(f) {
			t.Errorf("a one-ulp (or one-count) change in %s passed the comparison", name)
		}
	}
}

// TestBenchmarkJSONMatchesCode keeps BENCHMARK.json's metric lists, units
// and directions in step with what the program prints, and the serve rates
// and latency limit its serve entry records in step with the code.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		json []struct{ Name, Unit, Better string }
		code []metricDef
	}{{b.EndToEnd, endToEnd}, {b.PerLayer, perLayer}} {
		if len(c.json) != len(c.code) {
			t.Fatalf("BENCHMARK.json lists %d metrics, the program %d", len(c.json), len(c.code))
		}
		for i, m := range c.json {
			d := c.code[i]
			if m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
				t.Errorf("BENCHMARK.json has %+v, the program %+v", m, d)
			}
		}
	}
	for _, w := range b.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %q is not in the program", w.Name)
		}
		if w.Name != "serve" {
			continue
		}
		for _, want := range []string{
			fmt.Sprintf("%g/%g/%g jobs/s", serveRates[0], serveRates[1], serveRates[2]),
			fmt.Sprintf("the %d/s served", serveCapacity),
			fmt.Sprintf("p90 limit %d ms", serveLimit.Milliseconds()),
		} {
			if !strings.Contains(w.Why, want) {
				t.Errorf("BENCHMARK.json serve entry does not record %q: %s", want, w.Why)
			}
		}
	}
	if len(b.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the program %d", len(b.Workloads), len(workloads))
	}
}

// TestWorkloadsEndToEnd runs every workload briefly, traced, on smaller
// spec sets, and checks it reports every per-layer metric with all results
// bitwise equal to the reference; solve-cheap also runs untraced through the
// command's entry point.
func TestWorkloadsEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload for a few seconds")
	}
	t.Run("solve-cheap/trace0", func(t *testing.T) {
		var out, errOut bytes.Buffer
		code := run([]string{"--workload", "solve-cheap", "--seed", "2", "--seconds", "1", "--trace", "0"}, &out, &errOut)
		if code != 0 {
			t.Fatalf("exit %d: %s\n%s", code, errOut.String(), out.String())
		}
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		var res output
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			t.Fatal(err)
		}
		checkOutput(t, res, endToEnd)
	})
	small := func(w *libWorkload) func(options) (report, error) {
		c := *w
		c.reps = 4
		return func(o options) (report, error) { return runLibrary(&c, o) }
	}
	for _, c := range []struct {
		name    string
		wl      func(options) (report, error)
		seconds time.Duration
	}{
		{"solve-cheap", small(solveCheap), time.Second},
		{"solve-heavy", small(solveHeavy), time.Second},
		{"fleet", small(fleetCheap), time.Second},
		{"serve", runServe, 6 * time.Second},
	} {
		t.Run(c.name+"/trace1", func(t *testing.T) {
			var log bytes.Buffer
			o := options{seed: 2, seconds: c.seconds, trace: true, workdir: t.TempDir(), log: &log, nproc: runtime.NumCPU()}
			rep, err := c.wl(o)
			if err != nil {
				t.Fatalf("%v\n%s", err, log.String())
			}
			res, err := finish(rep, o, &log)
			if err != nil {
				t.Fatal(err)
			}
			checkOutput(t, res, perLayer)
		})
	}
}

func checkOutput(t *testing.T, res output, want []metricDef) {
	t.Helper()
	if !res.Correct || res.Failed != 0 || res.Attempted < window {
		t.Fatalf("correct=%v failed=%d attempted=%d", res.Correct, res.Failed, res.Attempted)
	}
	if len(res.Metrics) != len(want) {
		t.Fatalf("%d metrics, want %d", len(res.Metrics), len(want))
	}
	for _, d := range want {
		if m, ok := res.Metrics[d.name]; !ok || m.Unit != d.unit {
			t.Errorf("metric %s: %+v, present %v", d.name, m, ok)
		}
	}
}

func TestUnknownWorkloadFails(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"--workload", "nope"}, &out, &errOut); code == 0 || out.Len() != 0 {
		t.Fatalf("exit %d, stdout %q", code, out.String())
	}
}
