package shardedkv

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/core"
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

// TestMergeRunsMatchesReference checks mergeRuns and mergedPairs against
// mergeKV on random runs — no runs, empty runs, one run, many — and that
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

		mp := mergedPairs(cloneRuns(runs))
		if !samePairs(mp, want) || (want == nil) != (mp == nil) || cap(mp) != len(want) {
			t.Fatalf("trial %d: mergedPairs %v (cap %d), reference %v", trial, mp, cap(mp), want)
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

// TestScansAcrossSplitForward: after a split the parent's run arrives
// as its two children's, so a scan merges more runs than the map had
// shards at its start. Range and MultiRange on both front ends must
// still emit every key once, in order — including through a map
// snapshot that still names the retired parent.
func TestScansAcrossSplitForward(t *testing.T) {
	for _, spec := range AllEngines() {
		for _, async := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/async=%v", spec.Name, async), func(t *testing.T) {
				st := New(Config{Shards: 2, NewEngine: spec.New})
				var kv KV = st
				if async {
					kv = NewAsync(st, AsyncConfig{})
				}
				w := core.NewWorker(core.WorkerConfig{Class: core.Big})
				for k := uint64(0); k < 300; k++ {
					if _, err := kv.Put(w, k, stressValue(k)); err != nil {
						t.Fatal(err)
					}
				}
				check := func(when string) {
					var got []uint64
					kv.Range(w, 10, 289, func(k uint64, v []byte) bool {
						checkStressValue(t, k, v)
						got = append(got, k)
						return true
					})
					multi := kv.MultiRange(w, []RangeReq{{Lo: 10, Hi: 289}, {Lo: 1_000, Hi: 2_000}, {Lo: 0, Hi: 4}})
					if len(multi) != 3 || len(multi[1]) != 0 || len(multi[2]) != 5 {
						t.Fatalf("%s: MultiRange sizes %d/%d/%d", when, len(multi[0]), len(multi[1]), len(multi[2]))
					}
					for i, want := 0, uint64(10); want <= 289; i, want = i+1, want+1 {
						if i >= len(got) || got[i] != want || i >= len(multi[0]) || multi[0][i].Key != want {
							t.Fatalf("%s: position %d is not key %d (Range %d keys, MultiRange %d)", when, i, want, len(got), len(multi[0]))
						}
					}
					if len(got) != 280 || len(multi[0]) != 280 {
						t.Fatalf("%s: Range %d keys, MultiRange %d, want 280", when, len(got), len(multi[0]))
					}
				}
				check("before any split")
				stale := st.smap.Load()
				if !st.ForceSplit(w, 0) || !st.ForceSplit(w, 0) {
					t.Fatal("ForceSplit refused")
				}
				check("after two splits")
				// A scan that loaded the map before the splits starts
				// from the retired parent and descends its forwards.
				st.smap.Store(stale)
				check("through the stale map")
			})
		}
	}
}
