package shardedkv

import (
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/locks"
	"repro/internal/locks/locktest"
)

// probeStore builds a one-shard store whose lock is wrapped with a
// ClassProbe, returning both. One shard means every op hits the probe.
func probeStore(t *testing.T) (*Store, *locktest.ClassProbe) {
	t.Helper()
	var mu sync.Mutex
	var probes []*locktest.ClassProbe
	st := New(Config{
		Shards: 1,
		NewLock: func() locks.WLock {
			p := locktest.WithClassProbe(locks.FactoryASL()())
			mu.Lock()
			probes = append(probes, p)
			mu.Unlock()
			return p
		},
	})
	mu.Lock()
	defer mu.Unlock()
	if len(probes) != 1 {
		t.Fatalf("expected 1 probe-wrapped lock, got %d", len(probes))
	}
	return st, probes[0]
}

// TestClassHintReachesShardLock asserts the serving-boundary property
// on both front ends: every op a class-c worker issues is observed at
// the shard lock as class c, one worker per class as the server keeps
// per connection. One worker at a time drives the pipeline, so it is
// its own combiner and the probe sees its class. Flush takes no shard
// lock on either front end.
func TestClassHintReachesShardLock(t *testing.T) {
	st, sp := probeStore(t)
	ast, ap := probeStore(t)
	for _, fe := range []struct {
		name  string
		kv    KV
		probe *locktest.ClassProbe
	}{
		{"store", st, sp},
		{"async", NewAsync(ast, AsyncConfig{}), ap},
	} {
		t.Run(fe.name, func(t *testing.T) {
			kv := fe.kv
			for _, c := range []core.Class{core.Little, core.Big} {
				w := core.NewWorker(core.WorkerConfig{Class: c})
				ops := []struct {
					name  string
					locks bool
					run   func() bool // reports whether the result was right
				}{
					{"Put", true, func() bool { ins, err := kv.Put(w, 1, []byte("a")); return ins && err == nil }},
					{"Get", true, func() bool { val, ok := kv.Get(w, 1); return ok && string(val) == "a" }},
					{"MultiPut", true, func() bool {
						n, err := kv.MultiPut(w, []Pair{{Key: 2, Value: []byte("b")}, {Key: 3, Value: []byte("c")}})
						return n == 2 && err == nil
					}},
					{"MultiGet", true, func() bool { _, oks := kv.MultiGet(w, []uint64{1, 2, 9}); return oks[0] && oks[1] && !oks[2] }},
					{"Range", true, func() bool {
						n := 0
						kv.Range(w, 0, 50, func(uint64, []byte) bool { n++; return true })
						return n == 3
					}},
					{"Flush", false, func() bool { return kv.Flush(w) == nil }},
					{"Delete", true, func() bool {
						for k := uint64(1); k <= 3; k++ { // leave the store empty for the next class
							if had, err := kv.Delete(w, k); !had || err != nil {
								return false
							}
						}
						return true
					}},
				}
				for _, op := range ops {
					before := fe.probe.Stats()
					if !op.run() {
						t.Fatalf("%s as %v: wrong result", op.name, c)
					}
					after := fe.probe.Stats()
					own := after.LittleAcquires - before.LittleAcquires
					other := after.BigAcquires - before.BigAcquires
					if c == core.Big {
						own, other = other, own
					}
					if other != 0 || op.locks != (own != 0) {
						t.Fatalf("%s as %v: %d acquires as the worker's class, %d as the other", op.name, c, own, other)
					}
				}
			}
		})
	}
}
