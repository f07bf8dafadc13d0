package noise

import "math/rand"

// math/rand's seeded generator is an additive lagged Fibonacci generator
// over a register of rngLen words with taps rngLen and rngTap. Seeding fills
// the register from a Park–Miller LCG, x_{n+1} = 48271*x_n mod (2^31-1),
// XORed with the rngCooked table: word i is
//
//	rngCooked[i] ^ (x_{21+3i}<<40 ^ x_{22+3i}<<20 ^ x_{23+3i})
//
// with x_0 the reduced seed. That costs 1,841 LCG steps and 4.9 KB per
// seed, while a sampled point typically draws one to three normals.
const (
	rngLen    = 607
	rngTap    = 273
	rngFeed   = rngLen - rngTap // the feed index's starting position
	rngMask   = 1<<63 - 1
	int32max  = 1<<31 - 1
	lcgFirst  = 21       // LCG index of word 0's first value
	zeroSeed  = 89482311 // what math/rand seeds with in place of 0
	lcgFactor = 48271    // the LCG's multiplier
	lcgSteps  = lcgFirst + 3*rngLen
)

// lcgPow[n] = 48271^n mod (2^31-1), so x_n = seed*lcgPow[n] mod (2^31-1)
// costs one multiply and one mod instead of n LCG steps.
var lcgPow = func() (p [lcgSteps]uint64) {
	p[0] = 1
	for n := 1; n < len(p); n++ {
		p[n] = p[n-1] * lcgFactor % int32max
	}
	return p
}()

// source is a rand.Source64 whose output equals rand.NewSource(seed)'s bit
// for bit, but whose seeding stores only the reduced seed. Each of the first
// rngTap outputs is the sum of two register words that no feedback write has
// touched yet, so it is computed from the seed directly. Only the draw after
// those builds the register, replaying the rngTap feedback writes, and the
// standard generator loop continues from there.
type source struct {
	seed      uint64 // reduced seed, in [1, 2^31-2]
	drawn     int    // outputs taken before the register was built
	tap, feed int
	vec       *[rngLen]int64 // nil until the (rngTap+1)-th draw
}

// NewRand returns a *rand.Rand whose every output equals that of
// rand.New(rand.NewSource(seed)), at a small fraction of the seeding cost. It
// is the one constructor of noise RNGs: local streams, restored points and
// fleet workers replaying a stream all build their draws through it.
func NewRand(seed int64) *rand.Rand {
	s := &source{}
	s.Seed(seed)
	return rand.New(s)
}

// Seed implements rand.Source. The seed reduces mod 2^31-1, as in math/rand,
// so 64-bit seeds map onto 2^31-1 distinct streams.
func (s *source) Seed(seed int64) {
	seed %= int32max
	if seed < 0 {
		seed += int32max
	}
	if seed == 0 {
		seed = zeroSeed
	}
	*s = source{seed: uint64(seed)}
}

// Int63 implements rand.Source.
//
//optlint:noalloc
func (s *source) Int63() int64 { return int64(s.Uint64() & rngMask) }

// Uint64 implements rand.Source64.
//
//optlint:noalloc
func (s *source) Uint64() uint64 {
	if s.vec == nil {
		if s.drawn < rngTap {
			s.drawn++
			return uint64(s.word(rngFeed-s.drawn) + s.word(rngLen-s.drawn))
		}
		s.materialize()
	}
	s.tap--
	if s.tap < 0 {
		s.tap += rngLen
	}
	s.feed--
	if s.feed < 0 {
		s.feed += rngLen
	}
	x := s.vec[s.feed] + s.vec[s.tap]
	s.vec[s.feed] = x
	return uint64(x)
}

// word returns word i of the freshly seeded register.
//
//optlint:noalloc
func (s *source) word(i int) int64 {
	n := lcgFirst + 3*i
	x0 := int64(s.seed * lcgPow[n] % int32max)
	x1 := int64(s.seed * lcgPow[n+1] % int32max)
	x2 := int64(s.seed * lcgPow[n+2] % int32max)
	return rngCooked[i] ^ (x0<<40 ^ x1<<20 ^ x2)
}

// materialize builds the register as it stands after the first rngTap
// outputs: the seeded words with the rngTap feedback writes replayed. Those
// writes touch feed words rngFeed-1 down to rngFeed-rngTap and read tap
// words rngLen-1 down to rngFeed, disjoint ranges, so their order is free.
func (s *source) materialize() {
	vec := new([rngLen]int64)
	for i := range vec {
		vec[i] = s.word(i)
	}
	for k := 1; k <= rngTap; k++ {
		vec[rngFeed-k] += vec[rngLen-k]
	}
	s.vec = vec
	s.tap = rngLen - rngTap
	s.feed = rngFeed - rngTap
}
