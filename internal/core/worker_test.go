package core

import (
	"testing"
)

// fakeClock is a manually advanced clock for deterministic tests.
type fakeClock struct{ now int64 }

func (f *fakeClock) clock() Clock { return func() int64 { return f.now } }

func newTestWorker(c Class, fc *fakeClock) *Worker {
	return NewWorker(WorkerConfig{Class: c, Clock: fc.clock()})
}

func TestWorkerEpochLatency(t *testing.T) {
	fc := &fakeClock{}
	w := newTestWorker(Little, fc)
	w.EpochStart(3)
	fc.now += 12345
	if lat := w.EpochEnd(3, 1<<40); lat != 12345 {
		t.Fatalf("latency = %d, want 12345", lat)
	}
}

func TestWorkerBigSkipsFeedback(t *testing.T) {
	fc := &fakeClock{}
	w := newTestWorker(Big, fc)
	w0 := w.EpochWindow(0)
	w.EpochStart(0)
	fc.now += 1 << 30 // enormous latency, tiny SLO
	w.EpochEnd(0, 1)
	if w.EpochWindow(0) != w0 {
		t.Fatal("big-core workers must not adjust the window (Algorithm 2 line 21)")
	}
}

func TestWorkerLittleFeedback(t *testing.T) {
	fc := &fakeClock{}
	w := newTestWorker(Little, fc)
	w0 := w.EpochWindow(5)
	w.EpochStart(5)
	fc.now += 1 << 30
	w.EpochEnd(5, 1) // violation
	if got := w.EpochWindow(5); got != w0/2 {
		t.Fatalf("window after violation = %d, want %d", got, w0/2)
	}
	w.EpochStart(5)
	w.EpochEnd(5, 1<<40) // compliant
	if got := w.EpochWindow(5); got <= w0/2 {
		t.Fatalf("window should grow after compliance, got %d", got)
	}
}

// TestClassDrivesEpochFeedback runs the same SLO misses through a big
// and a little worker sharing one clock, as a connection's per-class
// workers do: EpochEnd's window-update gate follows the class each
// worker was built with, so only the little worker's window shrinks.
func TestClassDrivesEpochFeedback(t *testing.T) {
	fc := &fakeClock{}
	big, little := newTestWorker(Big, fc), newTestWorker(Little, fc)
	before := big.EpochWindow(0)
	if little.EpochWindow(0) != before {
		t.Fatalf("fresh windows differ: big %d, little %d", before, little.EpochWindow(0))
	}
	for i := 0; i < 8; i++ {
		for _, w := range []*Worker{big, little} {
			w.EpochStart(0)
			fc.now += 1000
			w.EpochEnd(0, 1) // latency far above SLO
		}
	}
	if got := big.EpochWindow(0); got != before {
		t.Fatalf("big-class epochs moved the window: %d -> %d", before, got)
	}
	if got := little.EpochWindow(0); got >= before {
		t.Fatalf("little-class epochs left the window at %d (start %d)", got, before)
	}
}

func TestWorkerNestedEpochs(t *testing.T) {
	fc := &fakeClock{}
	w := newTestWorker(Little, fc)
	if w.InEpoch() {
		t.Fatal("fresh worker must not be in an epoch")
	}
	w.EpochStart(1)
	if w.CurrentEpoch() != 1 {
		t.Fatalf("current epoch = %d, want 1", w.CurrentEpoch())
	}
	w.EpochStart(2) // nested: inner epoch takes priority (§3.4)
	if w.CurrentEpoch() != 2 {
		t.Fatalf("inner epoch = %d, want 2", w.CurrentEpoch())
	}
	fc.now += 100
	w.EpochEnd(2, 1<<40)
	if w.CurrentEpoch() != 1 {
		t.Fatalf("after inner end, epoch = %d, want 1 (popped from stack)", w.CurrentEpoch())
	}
	w.EpochEnd(1, 1<<40)
	if w.InEpoch() {
		t.Fatal("after outer end, worker must be outside any epoch")
	}
}

func TestWorkerReorderWindowSelection(t *testing.T) {
	fc := &fakeClock{}
	w := newTestWorker(Little, fc)
	// Outside any epoch: the default maximum window applies so the
	// thread eventually acquires (Algorithm 3 line 5).
	if got := w.ReorderWindow(); got != DefaultMaxWindow {
		t.Fatalf("window outside epoch = %d, want max %d", got, DefaultMaxWindow)
	}
	w.EpochStart(7)
	if got := w.ReorderWindow(); got != w.EpochWindow(7) {
		t.Fatalf("window inside epoch = %d, want epoch 7's %d", got, w.EpochWindow(7))
	}
	// Nested epochs: the inner window governs.
	w.EpochStart(8)
	w.EpochEnd(8, 1) // hammer epoch 8's window down
	w.EpochStart(8)
	if got := w.ReorderWindow(); got != w.EpochWindow(8) {
		t.Fatalf("inner window = %d, want epoch 8's %d", got, w.EpochWindow(8))
	}
}

func TestWorkerEpochIDOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for out-of-range epoch id")
		}
	}()
	w := NewWorker(WorkerConfig{Class: Little, MaxEpochs: 4})
	w.EpochStart(4)
}

func TestWorkerCustomController(t *testing.T) {
	fc := &fakeClock{}
	w := NewWorker(WorkerConfig{
		Class:         Little,
		Clock:         fc.clock(),
		NewController: func() Controller { return &Static{W: 4242} },
	})
	w.EpochStart(0)
	fc.now += 1 << 30
	w.EpochEnd(0, 1)
	if got := w.EpochWindow(0); got != 4242 {
		t.Fatalf("custom controller window = %d, want 4242", got)
	}
}

func TestWorkerDistinctEpochWindows(t *testing.T) {
	// Each epoch id keeps its own controller ("LibASL keeps individual
	// reorder windows for each epoch").
	fc := &fakeClock{}
	w := newTestWorker(Little, fc)
	w.EpochStart(1)
	fc.now += 1 << 30
	w.EpochEnd(1, 1) // violate epoch 1 only
	if w.EpochWindow(1) >= w.EpochWindow(2) {
		t.Fatal("epoch 1's violation must not affect epoch 2's window")
	}
}
