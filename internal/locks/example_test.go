package locks_test

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/locks"
)

// ExampleASLMutex shows the paper's usage model (Fig. 6): classify the
// worker, annotate the latency-critical region as an epoch, lock as
// usual.
func ExampleASLMutex() {
	mu := new(locks.ASLMutex)
	w := core.NewWorker(core.WorkerConfig{Class: core.Little})

	counter := 0
	w.EpochStart(5) // epoch id 5, as in the paper's example
	mu.Acquire(w)
	counter++
	mu.Release(w)
	latency := w.EpochEnd(5, int64(time.Millisecond)) // SLO: 1 ms

	fmt.Println(counter, latency >= 0)
	// Output: 1 true
}

// Example_requestHandler is Fig. 6 on a request handler: each request
// is one epoch with a latency SLO, and the handler takes a different
// set of ASL mutexes on each code path. Neither lock is told the SLO;
// the epoch's feedback sizes both locks' reorder windows.
func Example_requestHandler() {
	const requestEpoch = 5 // the epoch id of the paper's Fig. 6
	slo := int64(500 * time.Microsecond)
	sessions := new(locks.ASLMutex) // lock_1: the session table
	audit := new(locks.ASLMutex)    // lock_2: the audit log
	table := map[uint64]int{}
	var log []uint64

	serve := func(w *core.Worker, id uint64) {
		sessions.Acquire(w)
		table[id]++
		sessions.Release(w)
		if id%4 == 0 { // only this code path takes lock_2
			audit.Acquire(w)
			log = append(log, id)
			audit.Release(w)
		}
	}

	// Two big-class and two little-class handlers serve 256 distinct
	// request ids each.
	var wg sync.WaitGroup
	for h := 0; h < 4; h++ {
		class := core.Big
		if h >= 2 {
			class = core.Little
		}
		wg.Add(1)
		go func(h int, class core.Class) {
			defer wg.Done()
			w := core.NewWorker(core.WorkerConfig{Class: class})
			for i := 0; i < 256; i++ {
				w.EpochStart(requestEpoch)
				serve(w, uint64(h*256+i))
				w.EpochEnd(requestEpoch, slo)
			}
		}(h, class)
	}
	wg.Wait()

	fmt.Println(len(table), "sessions,", len(log), "audit records")
	// Output: 1024 sessions, 256 audit records
}
