package workload

import (
	"math"

	"repro/internal/prng"
)

// This file provides key generators for the KV-service benchmarks:
// uniform keys and the YCSB-style bounded zipfian distribution used to
// model skewed key popularity (a few shards hot, the rest cold —
// the regime where per-shard lock contention sets the tail).

// KeyGen draws keys in [0, N) using the caller's PRNG.
type KeyGen interface {
	// Draw returns the next key.
	Draw(src prng.Source) uint64
	// N returns the keyspace size.
	N() uint64
}

// Uniform draws keys uniformly from [0, N).
type Uniform struct{ n uint64 }

// NewUniform returns a uniform generator over [0, n).
func NewUniform(n uint64) *Uniform {
	if n == 0 {
		n = 1
	}
	return &Uniform{n: n}
}

// N returns the keyspace size.
func (u *Uniform) N() uint64 { return u.n }

// Draw returns a uniform key.
func (u *Uniform) Draw(src prng.Source) uint64 { return prng.Uint64n(src, u.n) }

// Zipf draws keys from a bounded zipfian distribution over [0, N)
// (rank 0 most popular) using the Gray et al. "quickly generating
// billion-record synthetic databases" method, the same construction as
// YCSB's ZipfianGenerator. Theta in (0, 1); YCSB's default is 0.99.
//
// Construction is O(N) (one zeta sum); Draw is O(1). A Zipf value is
// immutable after construction and safe for concurrent Draw calls,
// each with its own PRNG.
type Zipf struct {
	n     uint64
	theta float64
	alpha float64
	zetan float64
	eta   float64
	half  float64 // pow(0.5, theta), hoisted out of Draw
}

// NewZipf builds a zipfian generator over [0, n) with skew theta.
// theta outside (0, 1) panics; use NewUniform for no skew.
func NewZipf(n uint64, theta float64) *Zipf {
	if n == 0 {
		n = 1
	}
	if theta <= 0 || theta >= 1 {
		panic("workload: zipf theta must be in (0, 1)")
	}
	zetan := zeta(n, theta)
	zeta2 := zeta(2, theta)
	z := &Zipf{
		n:     n,
		theta: theta,
		alpha: 1 / (1 - theta),
		zetan: zetan,
		eta:   (1 - math.Pow(2/float64(n), 1-theta)) / (1 - zeta2/zetan),
		half:  math.Pow(0.5, theta),
	}
	return z
}

// zeta computes the generalized harmonic number sum_{i=1..n} 1/i^theta.
func zeta(n uint64, theta float64) float64 {
	var s float64
	for i := uint64(1); i <= n; i++ {
		s += 1 / math.Pow(float64(i), theta)
	}
	return s
}

// N returns the keyspace size.
func (z *Zipf) N() uint64 { return z.n }

// Draw returns the next zipfian key; rank 0 is the hottest.
func (z *Zipf) Draw(src prng.Source) uint64 {
	u := prng.Float64(src)
	uz := u * z.zetan
	if uz < 1 {
		return 0
	}
	if uz < 1+z.half {
		return 1
	}
	k := uint64(float64(z.n) * math.Pow(z.eta*u-z.eta+1, z.alpha))
	if k >= z.n {
		k = z.n - 1
	}
	return k
}

// ReadHeavy returns the KV service's read-dominated mix: 95% get / 5%
// put (YCSB-B's proportions).
func ReadHeavy() *Mix {
	kinds := make([]OpKind, 0, 20)
	for i := 0; i < 19; i++ {
		kinds = append(kinds, OpGet)
	}
	return &Mix{kinds: append(kinds, OpPut)}
}

// WriteHeavy returns the write-dominated mix: 80% put / 20% get.
func WriteHeavy() *Mix {
	return &Mix{kinds: []OpKind{OpPut, OpPut, OpPut, OpPut, OpGet}}
}

// ScanHeavy returns the scan-dominated mix: 95% range scan / 5% put
// (YCSB-E's proportions — short ranges with occasional inserts). Scans
// are the long, data-dependent critical sections that stress a shard
// lock's reorder window.
func ScanHeavy() *Mix {
	kinds := make([]OpKind, 0, 20)
	for i := 0; i < 19; i++ {
		kinds = append(kinds, OpScan)
	}
	return &Mix{kinds: append(kinds, OpPut)}
}
