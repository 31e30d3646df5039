package main

import (
	"slices"
	"testing"
)

// stream fingerprints the first n ops of one (workload, class, seed).
func stream(wl *workload, class int, seed uint64, n int) []uint64 {
	g := newOpGen(wl, class, seed, zipfFor(wl))
	var out []uint64
	var o op
	for i := 0; i < n; i++ {
		g.next(&o)
		out = append(out, uint64(o.kind), o.key, o.hi)
		out = append(out, o.keys...)
	}
	return out
}

func TestSameSeedSameOpStream(t *testing.T) {
	for i := range workloads {
		wl := &workloads[i]
		for class := range classNames {
			a, b := stream(wl, class, 42, 2000), stream(wl, class, 42, 2000)
			if !slices.Equal(a, b) {
				t.Errorf("%s %s: seed 42 gave two different op streams", wl.name, classNames[class])
			}
			if slices.Equal(a, stream(wl, class, 43, 2000)) {
				t.Errorf("%s %s: seeds 42 and 43 gave the same op stream", wl.name, classNames[class])
			}
		}
		if slices.Equal(stream(wl, interactive, 42, 2000), stream(wl, bulk, 42, 2000)) {
			t.Errorf("%s: both classes draw the same stream", wl.name)
		}
	}
}

func TestOpStreamShape(t *testing.T) {
	for i := range workloads {
		wl := &workloads[i]
		if wl.keys&(wl.keys-1) != 0 {
			t.Errorf("%s: keyspace %d is not a power of two", wl.name, wl.keys)
		}
		for class := range classNames {
			share := 0
			for _, s := range wl.mixes[class] {
				share += s
			}
			if share != 100 {
				t.Errorf("%s %s: op shares sum to %d", wl.name, classNames[class], share)
			}
			g := newOpGen(wl, class, 7, zipfFor(wl))
			var seen [numOpKinds]int
			var o op
			for n := 0; n < 5000; n++ {
				g.next(&o)
				seen[o.kind]++
				switch o.kind {
				case opGet:
					if o.key >= wl.keys {
						t.Fatalf("%s: get of key %d outside the keyspace", wl.name, o.key)
					}
				case opPut:
					if o.key >= wl.keys || int(o.key&1) != class {
						t.Fatalf("%s %s: put to key %d, which this class does not own", wl.name, classNames[class], o.key)
					}
				case opMultiGet, opMultiPut:
					if len(o.keys) != wl.batch {
						t.Fatalf("%s: batch of %d keys, want %d", wl.name, len(o.keys), wl.batch)
					}
					sorted := slices.Clone(o.keys)
					slices.Sort(sorted)
					if len(slices.Compact(sorted)) != wl.batch {
						t.Fatalf("%s: batch repeats a key: %v", wl.name, o.keys)
					}
					for _, k := range o.keys {
						if k >= wl.keys || (o.kind == opMultiPut && int(k&1) != class) {
							t.Fatalf("%s %s: batch key %d out of range or not owned", wl.name, classNames[class], k)
						}
					}
				case opRange:
					if o.hi-o.key != wl.span || o.hi >= wl.keys {
						t.Fatalf("%s: range [%d,%d] does not fit the keyspace", wl.name, o.key, o.hi)
					}
				}
			}
			for k, s := range wl.mixes[class] {
				if (s == 0) != (seen[k] == 0) {
					t.Errorf("%s %s: %s has share %d but was drawn %d times", wl.name, classNames[class], opNames[k], s, seen[k])
				}
			}
		}
	}
}

func TestZipfianIsSkewed(t *testing.T) {
	z := newZipfian(1<<10, 0.99)
	var rng splitMix64
	counts := make([]int, 1<<10)
	for i := 0; i < 100000; i++ {
		r := z.rank(rng.float())
		if r >= 1<<10 {
			t.Fatalf("rank %d outside [0, 1024)", r)
		}
		counts[r]++
	}
	if counts[0] < 5*counts[9] || counts[0] < 50*counts[512] {
		t.Errorf("rank 0 drawn %d times, rank 9 %d, rank 512 %d: not a zipf(0.99) head", counts[0], counts[9], counts[512])
	}
}

func TestStampRoundTrip(t *testing.T) {
	v := newValue(64)
	stamp(v, 0xfeed, 77)
	if k, s := readStamp(v); k != 0xfeed || s != 77 || len(v) != 64 {
		t.Errorf("stamp round trip gave key %#x seq %d len %d", k, s, len(v))
	}
}
