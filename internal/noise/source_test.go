package noise

import (
	"math"
	"math/rand"
	"testing"
)

// sourceDraws covers the lazy phase, the register build at draw rngTap+1,
// the feed index's wrap at draw rngFeed+1 and the tap index's at rngLen+1,
// and a full second lap of the register.
const sourceDraws = 3000

// sourceSeeds are the seeds whose reduction math/rand special-cases or wraps,
// plus a few hundred random ones.
func sourceSeeds() []int64 {
	seeds := []int64{
		0, 1, -1, zeroSeed, -zeroSeed,
		int32max, -int32max, 2 * int32max, -2 * int32max, 1 << 20 * int32max,
		int32max - 1, int32max + 1, 1 << 31, -(1 << 31),
		math.MinInt64, math.MaxInt64, math.MinInt64 + 1,
	}
	rng := rand.New(rand.NewSource(20111))
	for i := 0; i < 300; i++ {
		seeds = append(seeds, int64(rng.Uint64()))
	}
	return seeds
}

// checkSourceMatches compares n raw outputs of source against
// rand.NewSource(seed), alternating Uint64 and Int63 calls.
func checkSourceMatches(t *testing.T, seed int64, n int) {
	t.Helper()
	ref := rand.NewSource(seed).(rand.Source64)
	got := &source{}
	got.Seed(seed)
	for i := 0; i < n; i++ {
		if i%2 == 0 {
			if w, g := ref.Uint64(), got.Uint64(); w != g {
				t.Fatalf("seed %d: Uint64 draw %d = %#x, want %#x", seed, i+1, g, w)
			}
		} else if w, g := ref.Int63(), got.Int63(); w != g {
			t.Fatalf("seed %d: Int63 draw %d = %#x, want %#x", seed, i+1, g, w)
		}
	}
}

// TestSourceMatchesMathRand pins the bit-identity contract behind every
// golden trace: NewRand(seed) must draw exactly what
// rand.New(rand.NewSource(seed)) draws, raw and as normals.
func TestSourceMatchesMathRand(t *testing.T) {
	for _, seed := range sourceSeeds() {
		checkSourceMatches(t, seed, sourceDraws)

		ref := rand.New(rand.NewSource(seed))
		got := NewRand(seed)
		for i := 0; i < sourceDraws; i++ {
			if w, g := ref.NormFloat64(), got.NormFloat64(); math.Float64bits(w) != math.Float64bits(g) {
				t.Fatalf("seed %d: NormFloat64 draw %d = %v, want %v", seed, i+1, g, w)
			}
		}
	}
}

// TestSourceReseed checks that Seed restarts the stream, also after the
// register was built.
func TestSourceReseed(t *testing.T) {
	s := &source{}
	s.Seed(5)
	first := s.Uint64()
	for i := 0; i < 2*rngLen; i++ {
		s.Uint64()
	}
	s.Seed(5)
	if got := s.Uint64(); got != first {
		t.Fatalf("first draw after reseed = %#x, want %#x", got, first)
	}
}

// FuzzSourceMatchesMathRand explores seeds beyond the fixed list; n%2048
// draws reach past the register build and both index wraps.
func FuzzSourceMatchesMathRand(f *testing.F) {
	f.Add(int64(0), uint16(rngTap+1))
	f.Add(int64(math.MinInt64), uint16(rngLen+1))
	f.Fuzz(func(t *testing.T, seed int64, n uint16) {
		checkSourceMatches(t, seed, int(n)%2048)
	})
}

var drawSink float64

// BenchmarkNewStream measures what every new sampled point pays for its
// noise: building the stream and its first draw.
func BenchmarkNewStream(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s := NewStream(1.0, 0.5, int64(i))
		s.Sample(0.01)
		drawSink = s.Mean()
	}
}
