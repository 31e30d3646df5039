package btree

import (
	"fmt"
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
	leaf := tr.leaf(0)
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
	compactions, arena := 0, unsafe.SliceData(leaf.data)
	next := uint64(1)
	for round := 1; round <= 100 && (compactions < 2 || leaf.next == nil); round++ {
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
			if a := unsafe.SliceData(leaf.data); a != arena {
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
	if compactions < 2 || leaf.next == nil {
		t.Fatalf("leaf compacted %d times, split %v: the test did not reach the cases it pins", compactions, leaf.next != nil)
	}
}
