package noise

import (
	"math"
	"math/rand"
	"runtime"
	"testing"
)

// This file is the allocation-budget regression layer over the per-draw hot
// path. A single sampling increment — one noise draw folded into one
// accumulator — runs millions of times per optimization, so any allocation
// here multiplies into GC pressure across the whole run. The budgets are
// exact zeros and fail the build when exceeded.

// heapCost returns the heap allocations and bytes that n calls of fn make in
// total: a sum, not testing.AllocsPerRun's truncated mean, so a one-off
// allocation shows.
func heapCost(n int, fn func()) (allocs, bytes uint64) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		fn()
	}
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs, after.TotalAlloc - before.TotalAlloc
}

// inspectable returns an RNG together with its source, so a test can tell
// which phase it is in. A normal draw takes one or more raw outputs (the
// ziggurat rejects a few percent), so a draw count alone does not say
// whether the register was built.
func inspectable(seed int64) (*rand.Rand, *source) {
	src := &source{}
	src.Seed(seed)
	return rand.New(src), src
}

// TestPerDrawAllocFree pins every draw path at zero allocations in both of
// a stream's phases: lazy (no register yet) and built (past the one-time
// register build, which setup pays).
func TestPerDrawAllocFree(t *testing.T) {
	zs := make([]float64, 16)
	for i, rng := 0, NewRand(7); i < len(zs); i++ {
		zs[i] = rng.NormFloat64()
	}
	cases := []struct {
		name  string
		draws int // normal draws per call
		fn    func(s *Stream, a *Accumulator, rng *rand.Rand)
	}{
		{"Stream.Sample", 1, func(s *Stream, _ *Accumulator, _ *rand.Rand) { s.Sample(0.01) }},
		{"Stream.ApplyDraw", 1, func(s *Stream, _ *Accumulator, _ *rand.Rand) { s.ApplyDraw(0.01, 0.3) }},
		{"Stream.ApplyDraws/16", 16, func(s *Stream, _ *Accumulator, _ *rand.Rand) { s.ApplyDraws(0.01, zs) }},
		{"Accumulator.Sample", 1, func(_ *Stream, a *Accumulator, rng *rand.Rand) { a.Sample(0.01, rng) }},
		{"Accumulator.ApplyDraw", 1, func(_ *Stream, a *Accumulator, _ *rand.Rand) { a.ApplyDraw(0.01, 0.3) }},
		{"Accumulator.ApplyDraws/16", 16, func(_ *Stream, a *Accumulator, _ *rand.Rand) { a.ApplyDraws(0.01, zs) }},
	}
	for _, phase := range []string{"lazy", "built"} {
		built := phase == "built"
		for _, c := range cases {
			s, a := NewStream(1.0, 0.5, 42), NewAccumulator(1.0, 0.5)
			var ssrc *source
			s.rng, ssrc = inspectable(42)
			rng, rsrc := inspectable(43)
			for built && (ssrc.vec == nil || rsrc.vec == nil) {
				s.Sample(0.01)
				rng.NormFloat64()
			}
			calls := 200
			if !built {
				calls = 200 / c.draws // short of rngTap raw outputs
			}
			allocs, _ := heapCost(calls, func() { c.fn(s, a, rng) })
			if allocs != 0 {
				t.Errorf("%s/%s: %d allocs over %d calls, want 0", phase, c.name, allocs, calls)
			}
			if !built && (ssrc.vec != nil || rsrc.vec != nil) {
				t.Fatalf("%s/%s: %d calls left the lazy phase", phase, c.name, calls)
			}
		}
	}
}

// TestRegisterBuiltOnce pins where a source's one allocation beyond its
// constructor happens: nowhere in the first rngTap outputs, once (the 4.9 KB
// register) on the next, and never after.
func TestRegisterBuiltOnce(t *testing.T) {
	src := &source{}
	src.Seed(11)
	if allocs, _ := heapCost(rngTap, func() { src.Uint64() }); allocs != 0 {
		t.Errorf("first %d outputs: %d allocs, want 0", rngTap, allocs)
	}
	allocs, bytes := heapCost(1, func() { src.Uint64() })
	if allocs != 1 || bytes < 8*rngLen {
		t.Errorf("output %d: %d allocs, %d B; want the one %d B register", rngTap+1, allocs, bytes, 8*rngLen)
	}
	if allocs, _ := heapCost(3*rngLen, func() { src.Uint64() }); allocs != 0 {
		t.Errorf("outputs past the build: %d allocs, want 0", allocs)
	}
}

var streamSink *Stream

// TestNewStreamByteBudget caps what creating a point's stream costs. Every
// simplex move creates fresh points, so this is paid per trial point; a
// stream that seeded math/rand's 4.9 KB register up front would cost 20x.
func TestNewStreamByteBudget(t *testing.T) {
	const runs, budget = 100, 256
	seed := int64(0)
	allocs, bytes := heapCost(runs, func() {
		seed++
		streamSink = NewStream(1.0, 0.5, seed)
		streamSink.Sample(0.01)
	})
	if per := bytes / runs; per > budget {
		t.Errorf("NewStream + 1 draw: %d B per stream, budget %d B", per, budget)
	}
	t.Logf("NewStream + 1 draw: %.1f allocs, %d B per stream", float64(allocs)/runs, bytes/runs)
}

// TestApplyDrawsMatchesSequential pins the batched fold's bitwise contract:
// ApplyDraws(dt, zs) must leave a stream in exactly the state len(zs)
// sequential ApplyDraw calls would — same accumulator moments, same RNG
// position — including when batches interleave with local Sample calls.
func TestApplyDrawsMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	seq := NewStream(2.5, 1.25, 1234)
	bat := NewStream(2.5, 1.25, 1234)
	for round := 0; round < 50; round++ {
		dt := 0.001 * float64(1+rng.Intn(100))
		zs := make([]float64, rng.Intn(20))
		for i := range zs {
			zs[i] = rng.NormFloat64()
		}
		for _, z := range zs {
			seq.ApplyDraw(dt, z)
		}
		bat.ApplyDraws(dt, zs)
		if round%7 == 0 { // interleave local draws: RNG positions must agree
			seq.Sample(dt)
			bat.Sample(dt)
		}
		ss, bs := seq.State(), bat.State()
		if ss != bs {
			t.Fatalf("round %d: batched state diverged from sequential\nseq: %+v\nbat: %+v", round, ss, bs)
		}
		if b1, b2 := math.Float64bits(seq.Sigma()), math.Float64bits(bat.Sigma()); b1 != b2 {
			t.Fatalf("round %d: sigma bits %x != %x", round, b1, b2)
		}
	}
}
