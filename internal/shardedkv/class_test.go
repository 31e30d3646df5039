package shardedkv

import (
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/locks"
)

// probeStore builds a one-shard store whose lock is wrapped with a
// ClassProbe, returning both. One shard means every op hits the probe.
func probeStore(t *testing.T) (*Store, *locks.ClassProbe) {
	t.Helper()
	var mu sync.Mutex
	var probes []*locks.ClassProbe
	st := New(Config{
		Shards: 1,
		NewLock: func() locks.WLock {
			p := locks.WithClassProbe(locks.FactoryASL()())
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

// classedFrontEnd is one KV front end over a one-shard probe store.
// queue leaves a write on the pipeline's ring, so that Flush has
// something to combine under the shard lock; it is nil where Flush
// takes no shard lock at all (the plain store without durability).
type classedFrontEnd struct {
	name  string
	as    func(core.Class) Classed
	queue func(w *core.Worker)
	probe *locks.ClassProbe
}

func classedFrontEnds(t *testing.T) []classedFrontEnd {
	st, sp := probeStore(t)
	ast, ap := probeStore(t)
	a := NewAsync(ast, AsyncConfig{})
	return []classedFrontEnd{
		{"store", st.As, nil, sp},
		{"async", a.As, func(w *core.Worker) { a.PutAsync(w, 100, []byte("ff")) }, ap},
	}
}

// TestClassedViewOverridesLockClass asserts the core serving-boundary
// property on both front ends: every op issued through As(c) is
// observed at the shard lock as class c, whatever the worker's base
// class, and the override does not outlive the op. One worker drives
// the pipeline, so it is its own combiner and the probe sees its hint.
func TestClassedViewOverridesLockClass(t *testing.T) {
	for _, fe := range classedFrontEnds(t) {
		t.Run(fe.name, func(t *testing.T) {
			w := core.NewWorker(core.WorkerConfig{Class: core.Big})
			for _, c := range []core.Class{core.Little, core.Big} {
				v := fe.as(c)
				ops := []struct {
					name  string
					locks bool
					run   func() bool // reports whether the result was right
				}{
					{"Put", true, func() bool { ins, err := v.Put(w, 1, []byte("a")); return ins && err == nil }},
					{"Get", true, func() bool { val, ok := v.Get(w, 1); return ok && string(val) == "a" }},
					{"MultiPut", true, func() bool {
						n, err := v.MultiPut(w, []Pair{{Key: 2, Value: []byte("b")}, {Key: 3, Value: []byte("c")}})
						return n == 2 && err == nil
					}},
					{"MultiGet", true, func() bool { _, oks := v.MultiGet(w, []uint64{1, 2, 9}); return oks[0] && oks[1] && !oks[2] }},
					{"Range", true, func() bool {
						n := 0
						v.Range(w, 0, 50, func(uint64, []byte) bool { n++; return true })
						return n == 3
					}},
					{"Flush", fe.queue != nil, func() bool {
						if fe.queue != nil {
							fe.queue(w)
						}
						return v.Flush(w) == nil
					}},
					{"Delete", true, func() bool {
						for k := uint64(1); k <= 3; k++ { // leave the store empty for the next class
							if had, err := v.Delete(w, k); !had || err != nil {
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
					if other != 0 || (op.locks && own == 0) {
						t.Fatalf("%s as %v: %d acquires as the view's class, %d as the other", op.name, c, own, other)
					}
					if w.ClassHinted() || w.Class() != core.Big {
						t.Fatalf("%s as %v: hint leaked: hinted=%v class=%v", op.name, c, w.ClassHinted(), w.Class())
					}
				}
			}
		})
	}
}

// TestClassedViewRestoresOuterHint checks nesting: a view call inside
// an already-hinted scope restores the OUTER hint, not the base class.
func TestClassedViewRestoresOuterHint(t *testing.T) {
	for _, fe := range classedFrontEnds(t) {
		t.Run(fe.name, func(t *testing.T) {
			w := core.NewWorker(core.WorkerConfig{Class: core.Big})
			w.SetClassHint(core.Little)
			fe.as(core.Big).Put(w, 7, []byte("x"))
			if !w.ClassHinted() || w.Class() != core.Little {
				t.Fatalf("outer hint lost: hinted=%v class=%v", w.ClassHinted(), w.Class())
			}
			w.ClearClassHint()
		})
	}
}
