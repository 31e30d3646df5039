package shardedkv

import (
	"math/rand"
	"slices"
	"testing"
)

// mergeKV is the materialising merge the scan paths used before they
// shared mergeRuns, kept as the reference the new helper is checked
// against: per-shard sorted lists in, one ascending list out, ties to
// the earliest list.
func mergeKV(lists [][]Pair) []Pair {
	total := 0
	for _, l := range lists {
		total += len(l)
	}
	if total == 0 {
		return nil
	}
	out := make([]Pair, 0, total)
	idx := make([]int, len(lists))
	for len(out) < total {
		best := -1
		for i, l := range lists {
			if idx[i] < len(l) && (best < 0 || l[idx[i]].Key < lists[best][idx[best]].Key) {
				best = i
			}
		}
		out = append(out, lists[best][idx[best]])
		idx[best]++
	}
	return out
}

// randomRuns draws n sorted runs over a small key space, so runs
// collide on keys (the tie rule shows) and some come out empty. Values
// name their run, so a tie emitted in the wrong order is visible.
func randomRuns(rng *rand.Rand, n int) [][]Pair {
	runs := make([][]Pair, n)
	for i := range runs {
		for k := uint64(0); k < 64; k++ {
			if rng.Intn(4) == 0 && i%3 != 2 {
				runs[i] = append(runs[i], Pair{Key: k, Value: []byte{byte(i)}})
			}
		}
	}
	return runs
}

func cloneRuns(runs [][]Pair) [][]Pair {
	return append([][]Pair(nil), runs...)
}

func samePairs(a, b []Pair) bool {
	return slices.EqualFunc(a, b, func(x, y Pair) bool {
		return x.Key == y.Key && slices.Equal(x.Value, y.Value)
	})
}

// TestMergeRunsMatchesReference checks mergeRuns against mergeKV on
// random runs — no runs, empty runs, one run, many — and that
// an early false stops the emission exactly there.
func TestMergeRunsMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 500; trial++ {
		runs := randomRuns(rng, rng.Intn(7))
		want := mergeKV(runs)

		var got []Pair
		mergeRuns(cloneRuns(runs), func(k uint64, v []byte) bool {
			got = append(got, Pair{Key: k, Value: v})
			return true
		})
		if !samePairs(got, want) {
			t.Fatalf("trial %d: mergeRuns emitted %v, reference %v", trial, got, want)
		}

		if len(want) > 0 {
			stop := rng.Intn(len(want))
			calls := 0
			mergeRuns(cloneRuns(runs), func(uint64, []byte) bool {
				calls++
				return calls <= stop
			})
			if calls != stop+1 {
				t.Fatalf("trial %d: fn returned false on call %d and was called %d times", trial, stop+1, calls)
			}
		}
	}
}
