package hashkv

import (
	"bytes"
	"fmt"
	"runtime"
	"slices"
	"testing"

	"repro/internal/prng"
)

func TestPutGetDelete(t *testing.T) {
	h := New(64)
	if !h.Put(1, []byte("a")) {
		t.Fatal("insert should report true")
	}
	if h.Put(1, []byte("b")) {
		t.Fatal("replace should report false")
	}
	if v, ok := h.Get(1); !ok || string(v) != "b" {
		t.Fatalf("Get = %q,%v", v, ok)
	}
	if !h.Delete(1) || h.Delete(1) {
		t.Fatal("delete semantics wrong")
	}
	if h.Len() != 0 {
		t.Fatalf("len = %d", h.Len())
	}
}

func TestChainCollisions(t *testing.T) {
	// Tiny table: every bucket chains and the table doubles many times;
	// all keys must survive.
	h := New(2)
	for k := uint64(0); k < 500; k++ {
		h.Put(k, []byte{byte(k)})
	}
	if h.Len() != 500 {
		t.Fatalf("len = %d", h.Len())
	}
	for k := uint64(0); k < 500; k++ {
		v, ok := h.Get(k)
		if !ok || v[0] != byte(k) {
			t.Fatalf("Get(%d) failed", k)
		}
	}
}

// longestChain walks every bucket's chain by its int32 links.
func longestChain(h *Table) int {
	longest := 0
	for _, i := range h.heads {
		l := 0
		for ; i != 0; i = h.cells[i].next {
			l++
		}
		longest = max(longest, l)
	}
	return longest
}

func TestBucketGrowthBoundsChains(t *testing.T) {
	// Tiny initial bucket array: without growth, chains would reach n/4;
	// with load-factor doubling they stay O(maxLoad).
	h := New(4)
	const n = 10_000
	for k := uint64(0); k < n; k++ {
		h.Put(k, []byte{byte(k)})
	}
	if h.Len() != n {
		t.Fatalf("len = %d, want %d", h.Len(), n)
	}
	if got := len(h.heads); got < n/(2*maxLoad) {
		t.Fatalf("buckets stayed at %d for %d keys; growth never triggered", got, n)
	}
	// Average load is <= maxLoad by construction; any chain far past it
	// means the rehash scattered badly.
	if longest := longestChain(h); longest > 8*maxLoad {
		t.Fatalf("longest chain %d after growth; want O(%d)", longest, maxLoad)
	}
	// Everything must survive the rehashes, and deletes still work.
	for k := uint64(0); k < n; k++ {
		if v, ok := h.Get(k); !ok || v[0] != byte(k) {
			t.Fatalf("Get(%d) lost after growth", k)
		}
	}
	for k := uint64(0); k < n; k += 2 {
		if !h.Delete(k) {
			t.Fatalf("Delete(%d) missed after growth", k)
		}
	}
	if h.Len() != n/2 {
		t.Fatalf("len = %d after deletes, want %d", h.Len(), n/2)
	}
}

func TestRangeOrdered(t *testing.T) {
	h := New(32)
	for k := uint64(0); k < 1000; k += 3 {
		h.Put(k, []byte{byte(k)})
	}
	var got []uint64
	last := uint64(0)
	h.Range(100, 499, func(k uint64, v []byte) bool {
		if len(got) > 0 && k <= last {
			t.Fatalf("Range emitted %d after %d: out of order", k, last)
		}
		if v[0] != byte(k) {
			t.Fatalf("Range key %d carries wrong value", k)
		}
		last = k
		got = append(got, k)
		return true
	})
	want := 0
	for k := uint64(100); k < 500; k++ {
		if k%3 == 0 {
			want++
		}
	}
	if len(got) != want {
		t.Fatalf("Range yielded %d keys, want %d", len(got), want)
	}
	// Early stop.
	n := 0
	h.Range(0, ^uint64(0), func(uint64, []byte) bool {
		n++
		return false
	})
	if n != 1 {
		t.Fatalf("early-stopped Range visited %d keys, want 1", n)
	}
}

// TestTableVsMap drives random Put / Delete / Get over a small key
// space against a map, on tables that start at 4 buckets so they double
// mid-sequence, and checks every read surface after every step. Each
// Delete is classified by where its cell and the swapped-in last cell
// sit, and every kind must occur.
func TestTableVsMap(t *testing.T) {
	const keys = 64
	var deletes struct{ last, head, mid, sameChain int }
	for seed := uint64(1); seed <= 20; seed++ {
		rng := prng.NewXoshiro256(seed)
		h := New(4)
		ref := map[uint64][]byte{}
		for step := range 400 {
			k := prng.Uint64n(rng, keys)
			op := "put"
			switch prng.Uint64n(rng, 3) {
			case 0:
				v := []byte{byte(k), byte(step), byte(seed)}
				_, had := ref[k]
				if got := h.Put(k, v); got == had {
					t.Fatalf("seed %d step %d: Put(%d) = %v with key present=%v", seed, step, k, got, had)
				}
				ref[k] = v
			case 1:
				op = "delete"
				_, had := ref[k]
				if had {
					b := h.bucket(k)
					i := h.heads[b]
					for h.cells[i].key != k {
						i = h.cells[i].next
					}
					last := int32(len(h.cells) - 1)
					switch {
					case i == last:
						deletes.last++
					case h.heads[b] == i:
						deletes.head++
					default:
						deletes.mid++
					}
					if i != last && h.bucket(h.cells[last].key) == b {
						deletes.sameChain++
					}
				}
				if got := h.Delete(k); got != had {
					t.Fatalf("seed %d step %d: Delete(%d) = %v, want %v", seed, step, k, got, had)
				}
				delete(ref, k)
			default:
				op = "get"
			}
			checkAgainst(t, h, ref, keys, rng, fmt.Sprintf("seed %d step %d (%s %d)", seed, step, op, k))
			if t.Failed() {
				t.FailNow()
			}
		}
		if len(h.heads) == 4 {
			t.Fatalf("seed %d: the table never grew", seed)
		}
	}
	t.Logf("deletes: %+v", deletes)
	if deletes.last == 0 || deletes.head == 0 || deletes.mid == 0 || deletes.sameChain == 0 {
		t.Fatalf("delete cases not all covered: %+v", deletes)
	}
}

// checkAgainst compares every read surface of h with ref: Len, Get of
// each key in [0, keys), Scan (each live key exactly once), Range over
// a random span and BatchRange over random spans (ascending, exactly the
// model's keys in range, with their values).
func checkAgainst(t *testing.T, h *Table, ref map[uint64][]byte, keys uint64, rng *prng.Xoshiro256, where string) {
	t.Helper()
	if h.Len() != len(ref) {
		t.Errorf("%s: Len = %d, want %d", where, h.Len(), len(ref))
	}
	for k := range keys {
		got, ok := h.Get(k)
		want, had := ref[k]
		if ok != had || !bytes.Equal(got, want) {
			t.Errorf("%s: Get(%d) = %v,%v, want %v,%v", where, k, got, ok, want, had)
		}
	}
	seen := map[uint64]bool{}
	h.Scan(func(k uint64, v []byte) bool {
		if seen[k] {
			t.Errorf("%s: Scan visited %d twice", where, k)
		}
		seen[k] = true
		if !bytes.Equal(v, ref[k]) {
			t.Errorf("%s: Scan(%d) = %v, want %v", where, k, v, ref[k])
		}
		return true
	})
	if len(seen) != len(ref) {
		t.Errorf("%s: Scan visited %d keys, want %d", where, len(seen), len(ref))
	}
	inRange := func(lo, hi uint64) []uint64 {
		var want []uint64
		for k := range ref {
			if k >= lo && k <= hi {
				want = append(want, k)
			}
		}
		slices.Sort(want)
		return want
	}
	span := func() (uint64, uint64) {
		return prng.Uint64n(rng, keys+2), prng.Uint64n(rng, keys+2)
	}
	lo, hi := span()
	var got []uint64
	h.Range(lo, hi, func(k uint64, v []byte) bool {
		if !bytes.Equal(v, ref[k]) {
			t.Errorf("%s: Range value of %d = %v, want %v", where, k, v, ref[k])
		}
		got = append(got, k)
		return true
	})
	if want := inRange(lo, hi); !slices.Equal(got, want) {
		t.Errorf("%s: Range(%d, %d) = %v, want %v", where, lo, hi, got, want)
	}
	var spans [4][2]uint64
	for i := range spans {
		spans[i][0], spans[i][1] = span()
	}
	var batch [len(spans)][]uint64
	h.BatchRange(len(spans), func(i int) (uint64, uint64) { return spans[i][0], spans[i][1] },
		func(req int, k uint64, v []byte) {
			if !bytes.Equal(v, ref[k]) {
				t.Errorf("%s: BatchRange value of %d = %v, want %v", where, k, v, ref[k])
			}
			batch[req] = append(batch[req], k)
		})
	for i, s := range spans {
		if want := inRange(s[0], s[1]); !slices.Equal(batch[i], want) {
			t.Errorf("%s: BatchRange request %d [%d, %d] = %v, want %v", where, i, s[0], s[1], batch[i], want)
		}
	}
}

// TestTableIsOneObjectPerValue pins what a live table costs a GC cycle:
// one heap object per value plus its few arrays. Chains of heap nodes
// would double the count.
func TestTableIsOneObjectPerValue(t *testing.T) {
	const keys = 1 << 16
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	h := New(256)
	for k := range uint64(keys) {
		h.Put(k, make([]byte, 64))
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(h)
	objs := int64(after.HeapObjects) - int64(before.HeapObjects)
	t.Logf("%d keys, %d live heap objects", keys, objs)
	if limit := int64(keys + 64); objs > limit {
		t.Fatalf("a table of %d keys is %d live heap objects, want at most %d", keys, objs, limit)
	}
}
