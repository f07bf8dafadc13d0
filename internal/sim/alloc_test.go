package sim

import (
	"context"
	"runtime"
	"testing"
)

// TestSampleBatchAllocBudget is the allocation budget on the in-process
// batch sampling path: one batch of any width must cost O(1) allocations —
// the scheduler's batch header plus the dispatch closure — never O(points).
// Serial spaces (Workers: 1) pay exactly the one closure.
func TestSampleBatchAllocBudget(t *testing.T) {
	ctx := context.Background()
	points := func(s *LocalSpace, n int) []Point {
		ps := make([]Point, n)
		for i := range ps {
			ps[i] = s.NewPoint([]float64{0.5, -0.25})
		}
		return ps
	}

	t.Run("serial", func(t *testing.T) {
		s := NewLocalSpace(LocalConfig{Dim: 2, F: func(x []float64) float64 { return x[0] * x[0] }, Sigma0: ConstSigma(0.5), Seed: 3, Workers: 1})
		defer s.Close()
		ps := points(s, 16)
		allocs := testing.AllocsPerRun(100, func() {
			if err := s.SampleBatch(ctx, ps, 0.01); err != nil {
				t.Fatal(err)
			}
		})
		// The single allocation is the indexed dispatch closure handed to
		// the pool; it is batch-scoped, so the per-point cost is zero.
		if allocs > 1 {
			t.Errorf("serial SampleBatch(16): %.1f allocs per call, want <= 1", allocs)
		}
	})

	t.Run("concurrent", func(t *testing.T) {
		const budget = 10
		s := NewLocalSpace(LocalConfig{Dim: 2, F: func(x []float64) float64 { return x[0] * x[0] }, Sigma0: ConstSigma(0.5), Seed: 3, Workers: 4})
		defer s.Close()
		ps := points(s, 64)
		allocs := testing.AllocsPerRun(50, func() {
			if err := s.SampleBatch(ctx, ps, 0.01); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > budget {
			t.Errorf("concurrent SampleBatch(64): %.1f allocs per call, budget %d", allocs, budget)
		}
		t.Logf("concurrent SampleBatch(64): %.1f allocs per call (budget %d)", allocs, budget)
	})
}

var pointSink Point

// TestNewPointByteBudget caps the heap cost of creating a point: every
// simplex move creates fresh trial points, so this is paid per trial. At
// dim 3 the point, its coordinates and its noise stream (noise's own budget
// is 256 B) fit in 320 B; a stream that built math/rand's 4.9 KB register
// up front would not.
func TestNewPointByteBudget(t *testing.T) {
	const runs, budget = 100, 320
	s := NewLocalSpace(LocalConfig{Dim: 3, F: func(x []float64) float64 { return x[0] * x[0] }, Sigma0: ConstSigma(0.5), Seed: 3, Workers: 1})
	defer s.Close()
	x := []float64{0.5, -0.25, 1}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		pointSink = s.NewPoint(x)
	}
	runtime.ReadMemStats(&after)
	per := (after.TotalAlloc - before.TotalAlloc) / runs
	if per > budget {
		t.Errorf("NewPoint at dim 3: %d B per point, budget %d B", per, budget)
	}
	t.Logf("NewPoint at dim 3: %.1f allocs, %d B per point", float64(after.Mallocs-before.Mallocs)/runs, per)
}
