// Package prng provides small, fast, deterministic pseudo-random number
// generators for experiments. Every experiment in this repository is
// seeded explicitly so that simulator runs are reproducible bit-for-bit;
// the global math/rand source is never used.
package prng

// SplitMix64 is the SplitMix64 generator of Steele, Lea and Flood. It is
// used both directly (for cheap per-thread streams) and to seed
// Xoshiro256. The zero value is a valid generator seeded with 0.
type SplitMix64 struct {
	state uint64
}

// NewSplitMix64 returns a SplitMix64 seeded with seed.
func NewSplitMix64(seed uint64) *SplitMix64 {
	return &SplitMix64{state: seed}
}

// Uint64 returns the next 64-bit value in the stream.
func (s *SplitMix64) Uint64() uint64 {
	s.state += 0x9e3779b97f4a7c15
	return Mix64(s.state)
}

// Mix64 is SplitMix64's output finalizer: a strong invertible 64-bit
// mix. Hash partitioners (shard and bucket maps) use it directly so
// adjacent keys spread uniformly.
func Mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Xoshiro256 is the xoshiro256** generator of Blackman and Vigna. It has
// a 256-bit state and passes BigCrush; it is the default generator for
// workload mixes.
type Xoshiro256 struct {
	s [4]uint64
}

// NewXoshiro256 returns a generator whose state is derived from seed via
// SplitMix64, as recommended by the xoshiro authors.
func NewXoshiro256(seed uint64) *Xoshiro256 {
	sm := NewSplitMix64(seed)
	var x Xoshiro256
	for i := range x.s {
		x.s[i] = sm.Uint64()
	}
	// A xoshiro state of all zeros is a fixed point; SplitMix64 cannot
	// produce four consecutive zeros, but guard anyway for safety.
	if x.s[0]|x.s[1]|x.s[2]|x.s[3] == 0 {
		x.s[0] = 0x9e3779b97f4a7c15
	}
	return &x
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64-bit value in the stream.
func (x *Xoshiro256) Uint64() uint64 {
	result := rotl(x.s[1]*5, 7) * 9
	t := x.s[1] << 17
	x.s[2] ^= x.s[0]
	x.s[3] ^= x.s[1]
	x.s[1] ^= x.s[2]
	x.s[0] ^= x.s[3]
	x.s[2] ^= t
	x.s[3] = rotl(x.s[3], 45)
	return result
}

// Source is the common interface satisfied by both generators.
type Source interface {
	Uint64() uint64
}

// Intn returns a uniform value in [0, n) drawn from src. It panics if
// n <= 0. Lemire's multiply-shift rejection method is used to avoid
// modulo bias.
func Intn(src Source, n int) int {
	if n <= 0 {
		panic("prng: Intn called with n <= 0")
	}
	return int(Uint64n(src, uint64(n)))
}

// Uint64n returns a uniform value in [0, n) drawn from src. It panics if
// n == 0.
func Uint64n(src Source, n uint64) uint64 {
	if n == 0 {
		panic("prng: Uint64n called with n == 0")
	}
	// Fast path for powers of two.
	if n&(n-1) == 0 {
		return src.Uint64() & (n - 1)
	}
	// Rejection sampling on the top bits.
	threshold := -n % n
	for {
		v := src.Uint64()
		if v >= threshold {
			return v % n
		}
	}
}

// Float64 returns a uniform value in [0, 1) with 53 bits of precision.
func Float64(src Source) float64 {
	return float64(src.Uint64()>>11) / (1 << 53)
}

// Bool returns true with probability p.
func Bool(src Source, p float64) bool {
	return Float64(src) < p
}
