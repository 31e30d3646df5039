package btree

import (
	"bytes"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"testing"
	"testing/quick"
	"unsafe"

	"repro/internal/prng"
)

func TestPutGet(t *testing.T) {
	tr := New()
	for i := uint64(0); i < 1000; i++ {
		if !tr.Put(i*7%1000, []byte(fmt.Sprint(i*7%1000))) {
			t.Fatalf("key %d inserted twice?", i*7%1000)
		}
	}
	if tr.Len() != 1000 {
		t.Fatalf("len = %d, want 1000", tr.Len())
	}
	for i := uint64(0); i < 1000; i++ {
		v, ok := tr.Get(i)
		if !ok || string(v) != fmt.Sprint(i) {
			t.Fatalf("Get(%d) = %q, %v", i, v, ok)
		}
	}
	if _, ok := tr.Get(1000); ok {
		t.Fatal("found a key that was never inserted")
	}
}

func TestPutReplace(t *testing.T) {
	tr := New()
	tr.Put(5, []byte("a"))
	if tr.Put(5, []byte("b")) {
		t.Fatal("replacement must report inserted=false")
	}
	if v, _ := tr.Get(5); string(v) != "b" {
		t.Fatalf("value = %q, want b", v)
	}
	if tr.Len() != 1 {
		t.Fatalf("len = %d, want 1", tr.Len())
	}
}

func TestDelete(t *testing.T) {
	tr := New()
	for i := uint64(0); i < 500; i++ {
		tr.Put(i, []byte{byte(i)})
	}
	for i := uint64(0); i < 500; i += 2 {
		if !tr.Delete(i) {
			t.Fatalf("Delete(%d) failed", i)
		}
	}
	if tr.Delete(0) {
		t.Fatal("double delete succeeded")
	}
	if tr.Len() != 250 {
		t.Fatalf("len = %d, want 250", tr.Len())
	}
	for i := uint64(0); i < 500; i++ {
		_, ok := tr.Get(i)
		if want := i%2 == 1; ok != want {
			t.Fatalf("Get(%d) = %v, want %v", i, ok, want)
		}
	}
}

func TestRange(t *testing.T) {
	tr := New()
	for i := uint64(0); i < 100; i++ {
		tr.Put(i*10, nil)
	}
	var got []uint64
	tr.Range(95, 305, func(k uint64, v []byte) bool {
		got = append(got, k)
		return true
	})
	want := []uint64{100, 110, 120, 130, 140, 150, 160, 170, 180, 190, 200, 210, 220, 230, 240, 250, 260, 270, 280, 290, 300}
	if len(got) != len(want) {
		t.Fatalf("range = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("range = %v, want %v", got, want)
		}
	}
}

func TestRangeEarlyStop(t *testing.T) {
	tr := New()
	for i := uint64(0); i < 100; i++ {
		tr.Put(i, nil)
	}
	count := 0
	tr.Range(0, 99, func(k uint64, v []byte) bool {
		count++
		return count < 5
	})
	if count != 5 {
		t.Fatalf("early stop visited %d keys", count)
	}
}

func TestScanOrdered(t *testing.T) {
	tr := New()
	rng := prng.NewXoshiro256(9)
	seen := map[uint64]bool{}
	for i := 0; i < 5000; i++ {
		k := prng.Uint64n(rng, 1_000_000)
		tr.Put(k, nil)
		seen[k] = true
	}
	var prev uint64
	first := true
	n := 0
	tr.Range(0, ^uint64(0), func(k uint64, v []byte) bool {
		if !first && k <= prev {
			t.Fatalf("scan out of order: %d after %d", k, prev)
		}
		if !seen[k] {
			t.Fatalf("scan produced phantom key %d", k)
		}
		prev, first = k, false
		n++
		return true
	})
	if n != len(seen) {
		t.Fatalf("scan visited %d keys, want %d", n, len(seen))
	}
}

// TestVsReferenceMap property: arbitrary operation sequences keep the
// tree equivalent to a map plus sortedness.
func TestVsReferenceMap(t *testing.T) {
	f := func(seed uint64, opsCount uint16) bool {
		rng := prng.NewXoshiro256(seed)
		tr := New()
		ref := map[uint64][]byte{}
		for i := 0; i < int(opsCount%2000)+100; i++ {
			k := prng.Uint64n(rng, 512) // small key space forces collisions
			switch prng.Uint64n(rng, 3) {
			case 0, 1:
				v := []byte{byte(k), byte(i)}
				tr.Put(k, v)
				ref[k] = v
			case 2:
				got := tr.Delete(k)
				_, want := ref[k]
				if got != want {
					return false
				}
				delete(ref, k)
			}
		}
		if tr.Len() != len(ref) {
			return false
		}
		for k, v := range ref {
			got, ok := tr.Get(k)
			if !ok || string(got) != string(v) {
				return false
			}
		}
		n := 0
		tr.Range(0, ^uint64(0), func(k uint64, v []byte) bool { n++; return true })
		return n == len(ref)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestLargeSequential(t *testing.T) {
	tr := New()
	const n = 100_000
	for i := uint64(0); i < n; i++ {
		tr.Put(i, nil)
	}
	if tr.Len() != n {
		t.Fatalf("len = %d", tr.Len())
	}
	count := 0
	tr.Range(0, ^uint64(0), func(k uint64, v []byte) bool {
		if uint64(count) != k {
			t.Fatalf("scan key %d at position %d", k, count)
		}
		count++
		return true
	})
	if count != n {
		t.Fatalf("scanned %d", count)
	}
}

// TestHandedOutValuesNeverChange pins the rule the leaf arena relies
// on: a slice Get or Range handed out keeps its bytes, and cap == len,
// however the leaf is overwritten, deleted from, inserted into,
// compacted and split afterwards.
func TestHandedOutValuesNeverChange(t *testing.T) {
	tr := New()
	val := func(k uint64, round int) []byte {
		// Sizes vary with key and round, so spans land at uneven offsets.
		return []byte(fmt.Sprintf("k%d/r%d/%s", k, round, strings.Repeat("x", int(k+uint64(round))%13)))
	}
	var keys []uint64 // the live keys, ascending
	for k := uint64(0); k < 16; k += 2 {
		tr.Put(k, val(k, 0))
		keys = append(keys, k)
	}
	leaf := tr.leaves.at(tr.leaf(0))
	type held struct {
		k         uint64
		got, want []byte
	}
	var hs []held
	hold := func(k uint64, v []byte) {
		if cap(v) != len(v) {
			t.Fatalf("key %d: handed out cap %d for len %d", k, cap(v), len(v))
		}
		hs = append(hs, held{k, v, append([]byte(nil), v...)})
	}
	compactions, arena := 0, unsafe.SliceData(tr.data[0])
	next := uint64(1)
	for round := 1; round <= 100 && (compactions < 2 || leaf.next == 0); round++ {
		for _, k := range keys {
			v, _ := tr.Get(k)
			hold(k, v)
		}
		tr.Range(0, ^uint64(0), func(k uint64, v []byte) bool {
			hold(k, v)
			return true
		})
		for _, k := range keys {
			tr.Put(k, val(k, round))
			if a := unsafe.SliceData(tr.data[0]); a != arena {
				if arena != nil {
					compactions++
				}
				arena = a
			}
		}
		// One delete and two inserts per round, so the leaf fills and
		// splits.
		mid := len(keys) / 2
		tr.Delete(keys[mid])
		keys = append(keys[:mid], keys[mid+1:]...)
		for range 2 {
			tr.Put(next, val(next, round))
			keys = append(keys, next)
			next += 2
		}
		slices.Sort(keys)
		for _, h := range hs {
			if string(h.got) != string(h.want) {
				t.Fatalf("round %d: value of key %d handed out earlier changed from %q to %q", round, h.k, h.want, h.got)
			}
		}
	}
	if compactions < 2 || leaf.next == 0 {
		t.Fatalf("leaf compacted %d times, split %v: the test did not reach the cases it pins", compactions, leaf.next != 0)
	}
}

// TestTreeIsOneObjectPerLeaf pins what a live tree costs a GC cycle:
// one heap object per leaf (its arena) plus a few slab chunks and
// tables. Nodes that held their keys or spans in allocations of their
// own would more than double the count.
func TestTreeIsOneObjectPerLeaf(t *testing.T) {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	tr := New()
	for k := range uint64(1 << 16) {
		tr.Put(k, make([]byte, 64))
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	objs := int64(after.HeapObjects) - int64(before.HeapObjects)
	leaves := int64(tr.leaves.n)
	runtime.KeepAlive(tr)
	t.Logf("%d leaves, %d live heap objects", leaves, objs)
	if limit := leaves*11/10 + 64; objs > limit {
		t.Fatalf("a tree of %d leaves is %d live heap objects, want at most %d", leaves, objs, limit)
	}
}

// TestMixedValueSizesVsMap checks the tree against a map with values
// on both sides of maxInline: inline values live in the leaf arenas,
// larger ones in the side table, which must hold exactly the live
// large keys after every step.
func TestMixedValueSizesVsMap(t *testing.T) {
	sizes := []int{0, 1, maxInline, maxInline + 1, 4 << 10}
	tr := New()
	ref := map[uint64][]byte{}
	step := 0
	val := func(k uint64, size int) []byte {
		v := make([]byte, size)
		for i := range v {
			v[i] = byte(k) ^ byte(step) ^ byte(i>>3)
		}
		return v
	}
	check := func(what string) {
		t.Helper()
		if tr.Len() != len(ref) {
			t.Fatalf("step %d (%s): Len = %d, want %d", step, what, tr.Len(), len(ref))
		}
		large := 0
		for k, want := range ref {
			got, ok := tr.Get(k)
			if !ok || !bytes.Equal(got, want) || cap(got) != len(got) {
				t.Fatalf("step %d (%s): Get(%d) = %d bytes (cap %d), %v; want %d bytes", step, what, k, len(got), cap(got), ok, len(want))
			}
			if len(want) > maxInline {
				large++
				if _, ok := tr.large[k]; !ok {
					t.Fatalf("step %d (%s): large key %d is missing from the side table", step, what, k)
				}
			}
		}
		if len(tr.large) != large {
			t.Fatalf("step %d (%s): side table holds %d keys, want the %d live large keys", step, what, len(tr.large), large)
		}
		keys := make([]uint64, 0, len(ref))
		for k := range ref {
			keys = append(keys, k)
		}
		slices.Sort(keys)
		i := 0
		tr.Range(0, ^uint64(0), func(k uint64, v []byte) bool {
			if i >= len(keys) || k != keys[i] || !bytes.Equal(v, ref[k]) || cap(v) != len(v) {
				t.Fatalf("step %d (%s): Range pair %d is key %d with %d bytes", step, what, i, k, len(v))
			}
			i++
			return true
		})
		if i != len(keys) {
			t.Fatalf("step %d (%s): Range visited %d keys, want %d", step, what, i, len(keys))
		}
	}
	put := func(k uint64, size int) {
		step++
		v := val(k, size)
		tr.Put(k, v)
		ref[k] = v
		check(fmt.Sprintf("put %d, %d bytes", k, size))
	}
	del := func(k uint64) {
		step++
		_, want := ref[k]
		if got := tr.Delete(k); got != want {
			t.Fatalf("step %d: Delete(%d) = %v, want %v", step, k, got, want)
		}
		delete(ref, k)
		check(fmt.Sprintf("delete %d", k))
	}

	// One key going large, inline, large again, then deleted.
	for _, size := range []int{maxInline + 1, 1, 4 << 10, maxInline, 0, maxInline + 1} {
		put(7, size)
	}
	del(7)

	// A leaf splits while it holds large values.
	leaves := tr.leaves.n
	for k := uint64(100); k < 100+2*degree; k++ {
		put(k, sizes[3+k%2])
	}
	if tr.leaves.n == leaves {
		t.Fatal("filling a leaf with large values did not split it")
	}

	// Random puts and deletes over a small key space, so keys change
	// size class in place and leaves split around mixed values.
	rng := prng.NewXoshiro256(33)
	for range 3000 {
		k := prng.Uint64n(rng, 256)
		if prng.Uint64n(rng, 4) == 0 {
			del(k)
			continue
		}
		put(k, sizes[prng.Uint64n(rng, uint64(len(sizes)))])
	}
}
