package btree_test

import (
	"bytes"
	"runtime"
	"testing"

	"repro/internal/kvserver"
	"repro/internal/storage/btree"
)

// TestLargeValuePutAllocatesOneValue: each Put of the largest value the
// server accepts, into a leaf that already holds such values, allocates
// about that one value — large values keep an allocation of their own,
// so no Put compacts a leaf's worth of them.
func TestLargeValuePutAllocatesOneValue(t *testing.T) {
	tr := btree.New()
	tr.Put(0, make([]byte, kvserver.MaxValueLen))
	var before, after runtime.MemStats
	for k := uint64(1); k < 12; k++ {
		v := bytes.Repeat([]byte{byte(k)}, kvserver.MaxValueLen)
		runtime.ReadMemStats(&before)
		tr.Put(k, v)
		runtime.ReadMemStats(&after)
		if got := after.TotalAlloc - before.TotalAlloc; got > 3*kvserver.MaxValueLen/2 {
			t.Fatalf("Put of a %d-byte value into a leaf of %d such values allocated %d bytes, want about one value's worth",
				kvserver.MaxValueLen, k, got)
		}
		if got, _ := tr.Get(k); !bytes.Equal(got, v) {
			t.Fatalf("key %d: the large value did not read back", k)
		}
	}
}
