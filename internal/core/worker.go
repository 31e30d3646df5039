package core

import (
	"fmt"
	"time"
)

// Class identifies the computing-capacity class of the core a worker
// runs on. On real AMP hardware LibASL derives this from the core id;
// the Go library cannot observe physical core placement, so the
// application classifies its workers explicitly (e.g. the threads the
// scheduler keeps on big cores, or simply its latency-tolerant worker
// pool). The simulator assigns classes to simulated cores directly.
type Class int

const (
	// Big cores acquire with lock_immediately (paper Algorithm 3).
	Big Class = iota
	// Little cores acquire with lock_reorder and are the ones whose
	// epochs drive the window feedback.
	Little
)

// String returns "big" or "little".
func (c Class) String() string {
	if c == Big {
		return "big"
	}
	return "little"
}

// Clock returns the current time in nanoseconds. The real engine uses
// a monotonic clock (see NowFunc); the simulator passes its virtual
// clock, so epoch latencies and reorder windows are measured in virtual
// time there.
type Clock func() int64

// NowFunc is the default real-time clock: monotonic nanoseconds since
// process start (clock_gettime(CLOCK_MONOTONIC) underneath, the same
// ~45-cycle call the paper uses).
func NowFunc() Clock {
	start := time.Now()
	return func() int64 { return int64(time.Since(start)) }
}

// epochState is the 24-byte per-thread, per-epoch metadata of
// Algorithm 2: the reorder window lives inside the controller, start is
// the epoch_start timestamp.
type epochState struct {
	ctl   Controller
	start int64
}

// WorkerConfig configures a Worker.
type WorkerConfig struct {
	// Class is the worker's core class.
	Class Class
	// Clock supplies time; nil means a process-monotonic real clock.
	Clock Clock
	// AIMD configures every epoch's controller. The zero value applies
	// the paper's defaults (PCT 99, 100 ms max window).
	AIMD AIMDConfig
	// NewController, if non-nil, overrides the controller constructor
	// (LibASL-OPT's static window).
	NewController func() Controller
	// MaxEpochs bounds the number of distinct epoch ids (the paper's
	// MAX_EPOCH). 0 means 64.
	MaxEpochs int
}

// Worker is the per-thread state of LibASL: the current epoch, the
// nesting stack, and one window controller per epoch id. A Worker must
// only be used from one goroutine (it is the Go analogue of the paper's
// __thread data).
type Worker struct {
	class     Class
	clock     Clock
	cfg       WorkerConfig
	epochs    []epochState
	cur       int // current epoch id, -1 when outside any epoch
	stack     []int
	maxWindow int64
	// held is the index of the shard lock the worker holds, -1 when it
	// holds none: internal/shardedkv's lock guard reads and writes it.
	held int
}

// NewWorker returns a worker with the given configuration.
func NewWorker(cfg WorkerConfig) *Worker {
	if cfg.Clock == nil {
		cfg.Clock = NowFunc()
	}
	if cfg.MaxEpochs <= 0 {
		cfg.MaxEpochs = 64
	}
	aimd := cfg.AIMD.withDefaults()
	w := &Worker{
		class:     cfg.Class,
		clock:     cfg.Clock,
		cfg:       cfg,
		epochs:    make([]epochState, cfg.MaxEpochs),
		cur:       -1,
		maxWindow: aimd.MaxWindow,
		held:      -1,
	}
	return w
}

// Class returns the worker's core class, fixed at NewWorker. Every
// consumer of class — lock acquire paths, combiner election,
// spin-vs-park waiting, CSPad keying, EpochEnd's feedback gate — reads
// it through here. A caller that serves both classes keeps one worker
// per class (the paper's class belongs to the thread, not the call).
func (w *Worker) Class() Class { return w.class }

// BaseClass returns the worker's class; it is the same as Class.
func (w *Worker) BaseClass() Class { return w.class }

// HeldShard returns the index of the shard lock w holds, or -1 when it
// holds none. A worker holds at most one shard lock at a time;
// internal/shardedkv's lock guard keeps this record and checks it.
func (w *Worker) HeldShard() int { return w.held }

// SetHeldShard records the shard lock w holds, -1 for none. Only the
// guard's acquire and release paths call it.
func (w *Worker) SetHeldShard(i int) { w.held = i }

// Now returns the worker's clock reading (exposed for harness use).
func (w *Worker) Now() int64 { return w.clock() }

// InEpoch reports whether the worker is currently inside an epoch.
func (w *Worker) InEpoch() bool { return w.cur >= 0 }

// CurrentEpoch returns the innermost epoch id, or -1.
func (w *Worker) CurrentEpoch() int { return w.cur }

func (w *Worker) state(id int) *epochState {
	if id < 0 || id >= len(w.epochs) {
		panic(fmt.Sprintf("core: epoch id %d out of range [0,%d)", id, len(w.epochs)))
	}
	st := &w.epochs[id]
	if st.ctl == nil {
		if w.cfg.NewController != nil {
			st.ctl = w.cfg.NewController()
		} else {
			st.ctl = NewAIMD(w.cfg.AIMD)
		}
	}
	return st
}

// EpochStart marks the beginning of epoch id (paper Algorithm 2,
// epoch_start). Nested epochs push the outer id on a stack; the
// innermost epoch's window governs lock acquisition, implementing the
// "always prioritise the inner epoch" rule of §3.4.
func (w *Worker) EpochStart(id int) {
	st := w.state(id)
	if w.cur >= 0 {
		w.stack = append(w.stack, w.cur)
	}
	w.cur = id
	st.start = w.clock()
}

// EpochEnd marks the end of epoch id with the given latency SLO in
// nanoseconds (epoch_end). It returns the measured epoch latency.
// Matching Algorithm 2, workers on big cores skip the window update:
// only reordered victims (little cores) drive the feedback.
func (w *Worker) EpochEnd(id int, sloNs int64) (latencyNs int64) {
	st := w.state(id)
	latencyNs = w.clock() - st.start
	if w.Class() != Big {
		st.ctl.Observe(latencyNs, sloNs)
	}
	if n := len(w.stack); n > 0 {
		w.cur = w.stack[n-1]
		w.stack = w.stack[:n-1]
	} else {
		w.cur = -1
	}
	return latencyNs
}

// ReorderWindow returns the window a lock_reorder call should use right
// now (paper Algorithm 3): the innermost epoch's window when inside an
// epoch, otherwise the default maximum window, which guarantees the
// thread eventually enqueues even without any SLO annotation.
func (w *Worker) ReorderWindow() int64 {
	if w.cur < 0 {
		return w.maxWindow
	}
	return w.epochs[w.cur].ctl.Window()
}

// EpochWindow exposes epoch id's current window (for tests and traces).
func (w *Worker) EpochWindow(id int) int64 { return w.state(id).ctl.Window() }
