package simlock

import (
	"math"
	"testing"

	"repro/internal/amp"
	"repro/internal/core"
	"repro/internal/sim"
)

// TestSimTASDeterministicTrace: the weighted arbitration draws from a
// seeded PRNG, so two identical runs must produce identical grant
// sequences, and a different seed must (overwhelmingly) differ.
func TestSimTASDeterministicTrace(t *testing.T) {
	trace := func(seed uint64) []core.Class {
		k := sim.NewKernel()
		m := amp.NewMachine(k, amp.Config{Bigs: 2, Littles: 2, JitterPct: -1})
		l := &SimTAS{Seed: seed, Aff: Affinity{Favoured: core.Big, Factor: 3}}
		var grants []core.Class
		for i := 0; i < 4; i++ {
			m.NewThread("t", i, int64(i), func(th *amp.Thread) {
				for j := 0; j < 50; j++ {
					l.Lock(th)
					grants = append(grants, th.Class())
					th.Compute(200, amp.CS)
					l.Unlock(th)
					th.Compute(100, amp.NCS)
				}
			})
		}
		k.Run(math.MaxInt64)
		k.Shutdown()
		return grants
	}
	a, b := trace(7), trace(7)
	if len(a) != len(b) {
		t.Fatalf("trace lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same-seed traces diverge at %d", i)
		}
	}
	c := trace(8)
	same := 0
	for i := range a {
		if i < len(c) && a[i] == c[i] {
			same++
		}
	}
	if same == len(a) {
		t.Fatal("different seeds produced identical arbitration")
	}
}

// TestSimASLEndToEnd wires the real feedback controller to the
// simulated reorderable lock and checks the whole loop: violations
// shrink the window, compliance grows it, and little threads keep
// completing work.
func TestSimASLEndToEnd(t *testing.T) {
	k := sim.NewKernel()
	m := amp.NewMachine(k, amp.Config{Bigs: 2, Littles: 2, LittleCSFactor: 3, JitterPct: -1})
	r := &SimReorderable{Fifo: &SimMCS{}}

	const slo = int64(20_000)
	var littleDone int
	var worker *core.Worker
	for i := 0; i < 4; i++ {
		i := i
		m.NewThread("t", i, int64(i), func(th *amp.Thread) {
			w := core.NewWorker(core.WorkerConfig{Class: th.Class(), Clock: th.Clock()})
			if i == 2 {
				worker = w
			}
			for {
				w.EpochStart(0)
				if th.Class() == core.Big {
					r.LockImmediately(th)
				} else {
					r.LockReorder(th, w.ReorderWindow())
				}
				th.Compute(1000, amp.CS)
				r.Unlock(th)
				w.EpochEnd(0, slo)
				if th.Class() == core.Little {
					littleDone++
				}
				th.Compute(500, amp.NCS)
			}
		})
	}
	k.Run(20_000_000) // 20 ms virtual
	k.Shutdown()
	if littleDone == 0 {
		t.Fatal("little threads starved")
	}
	if worker == nil {
		t.Fatal("worker not captured")
	}
	w := worker.EpochWindow(0)
	if w <= 0 || w > core.DefaultMaxWindow {
		t.Fatalf("window out of range: %d", w)
	}
}
