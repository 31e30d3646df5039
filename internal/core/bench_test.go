package core

import (
	"testing"
	"time"
)

// BenchmarkEpochOverhead measures one EpochStart/EpochEnd pair on a
// little-class worker: a clock read each side plus the AIMD update. The
// paper reports ~93 cycles per epoch pair.
func BenchmarkEpochOverhead(b *testing.B) {
	w := NewWorker(WorkerConfig{Class: Little})
	for b.Loop() {
		w.EpochStart(0)
		w.EpochEnd(0, int64(time.Millisecond))
	}
}
