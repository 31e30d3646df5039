package prng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestSplitMix64Deterministic(t *testing.T) {
	a, b := NewSplitMix64(42), NewSplitMix64(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed must give the same stream")
		}
	}
	c := NewSplitMix64(43)
	same := 0
	a = NewSplitMix64(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() == c.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("different seeds collide too often: %d/1000", same)
	}
}

func TestXoshiroDeterministic(t *testing.T) {
	a, b := NewXoshiro256(7), NewXoshiro256(7)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed must give the same stream")
		}
	}
}

func TestIntnBounds(t *testing.T) {
	rng := NewXoshiro256(1)
	for _, n := range []int{1, 2, 3, 7, 100, 1 << 20} {
		for i := 0; i < 1000; i++ {
			v := Intn(rng, n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestIntnPanicsOnZero(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Intn(NewSplitMix64(1), 0)
}

func TestUint64nUniformity(t *testing.T) {
	rng := NewXoshiro256(99)
	const n, samples = 10, 100000
	counts := make([]int, n)
	for i := 0; i < samples; i++ {
		counts[Uint64n(rng, n)]++
	}
	want := float64(samples) / n
	for i, c := range counts {
		if math.Abs(float64(c)-want)/want > 0.05 {
			t.Errorf("bucket %d = %d, want ~%.0f", i, c, want)
		}
	}
}

func TestFloat64Range(t *testing.T) {
	f := func(seed uint64) bool {
		rng := NewSplitMix64(seed)
		for i := 0; i < 100; i++ {
			v := Float64(rng)
			if v < 0 || v >= 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestBoolProbability(t *testing.T) {
	rng := NewXoshiro256(5)
	hits := 0
	const n = 100000
	for i := 0; i < n; i++ {
		if Bool(rng, 0.3) {
			hits++
		}
	}
	p := float64(hits) / n
	if math.Abs(p-0.3) > 0.01 {
		t.Fatalf("Bool(0.3) frequency = %v", p)
	}
}

// Shuffle permutes the first n elements using the Fisher-Yates
// algorithm, calling swap(i, j) for each exchange.
func Shuffle(src Source, n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := Intn(src, i+1)
		swap(i, j)
	}
}

// Exponential returns an exponentially distributed value with the given
// mean.
func Exponential(src Source, mean float64) float64 {
	u := Float64(src)
	if u >= 1 {
		u = 0.9999999999999999
	}
	return -mean * math.Log(1-u)
}

func TestExponentialMean(t *testing.T) {
	rng := NewXoshiro256(11)
	sum := 0.0
	const n = 200000
	for i := 0; i < n; i++ {
		v := Exponential(rng, 100)
		if v < 0 {
			t.Fatal("exponential draw must be non-negative")
		}
		sum += v
	}
	mean := sum / n
	if math.Abs(mean-100)/100 > 0.02 {
		t.Fatalf("exponential mean = %v, want ~100", mean)
	}
}

func TestShuffleIsPermutation(t *testing.T) {
	rng := NewXoshiro256(3)
	xs := []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}
	Shuffle(rng, len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
	seen := make(map[int]bool)
	for _, x := range xs {
		if x < 0 || x > 9 || seen[x] {
			t.Fatalf("not a permutation: %v", xs)
		}
		seen[x] = true
	}
}

func TestZeroStateXoshiroGuard(t *testing.T) {
	// Any seed must produce a non-zero internal state (a zero state is
	// a fixed point of xoshiro).
	for seed := uint64(0); seed < 100; seed++ {
		x := NewXoshiro256(seed)
		if x.Uint64() == 0 && x.Uint64() == 0 && x.Uint64() == 0 && x.Uint64() == 0 {
			t.Fatalf("seed %d produced a degenerate stream", seed)
		}
	}
}
