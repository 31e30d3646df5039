package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"sync/atomic"
	"time"
)

// spanName is the layer boundary a span was recorded at.
type spanName uint8

const (
	spClientCall spanName = iota // kvclient: one client call (root of the wire pass)
	spKVCall                     // shardedkv: one KV call (root of the direct pass)
	spLockWait                   // locks: Acquire entry until acquired
	spLockHold                   // locks: acquired until Release
	spEngine                     // storage: one engine call under the shard lock
	spWalWrite                   // wal: one file write
	spWalFsync                   // wal: one file fsync
	numSpanNames
)

var spanNames = [numSpanNames]string{
	"kvclient.call", "shardedkv.call", "locks.wait", "locks.hold",
	"storage.op", "wal.write", "wal.fsync",
}

// span is one timed interval at a layer boundary. Spans of one request
// share req; parent is the index of the span that caused this one (-1 for
// a request's root). combined marks lock, engine and WAL spans recorded
// under the combining pipeline, where the executing worker's request — not
// necessarily the one that enqueued the operation — is the parent.
type span struct {
	name       spanName
	class      uint8
	combined   bool
	parent     int32
	req        uint64
	start, end int64 // ns since the tracer was created
}

// Sums and counts cover every request; full span records are kept for one
// request in sampleEvery, in a buffer allocated up front.
const (
	sampleEvery = 16
	spanCap     = 1 << 21
	rootBits    = 22 // spanCap+1 root slots fit below the request id
)

// tracer is the benchmark-side recorder behind one traced pass. It owns
// the span buffer and hands out the timing wrappers installed at the
// program's public seams (wrappers.go). With one request in flight per
// class-pinned connection, cur[class] names the request any lock, engine
// or WAL activity of that class belongs to.
type tracer struct {
	base     time.Time
	combined bool

	spans   []span
	next    atomic.Int64
	dropped atomic.Uint64

	// recording gates every wrapper: sums cover the measured window only.
	recording atomic.Bool
	cur       [2]atomic.Uint64 // request id << rootBits | root span slot + 1

	// Wrapper registry, rebuilt by each store open (single-threaded).
	pendingLock *timedLock
	locks       []*timedLock
	engines     []*timedEngine
	pairErr     error

	fs    fsStats
	conns [2]connStats
}

func newTracer(wl *workload) *tracer {
	return &tracer{base: time.Now(), combined: wl.pipeline, spans: make([]span, spanCap)}
}

func (t *tracer) now() int64 { return int64(time.Since(t.base)) }

// claim reserves a span slot, or -1 (counted as dropped) when the buffer
// is full.
func (t *tracer) claim() int32 {
	i := t.next.Add(1) - 1
	if i >= int64(len(t.spans)) {
		t.dropped.Add(1)
		return -1
	}
	return int32(i)
}

func (t *tracer) fill(slot int32, s span) {
	if slot >= 0 {
		t.spans[slot] = s
	}
}

func (t *tracer) emit(s span) { t.fill(t.claim(), s) }

// begin publishes request id as class's current request and, for a
// sampled request, reserves its root span.
func (t *tracer) begin(class int, id uint64) (root int32) {
	root = -1
	if id%sampleEvery == 0 && t.recording.Load() {
		root = t.claim()
	}
	t.cur[class].Store(id<<rootBits | uint64(root+1))
	return root
}

// end closes the request: later activity of the class belongs to nobody.
func (t *tracer) end(class int) { t.cur[class].Store(0) }

// current returns class's request in flight and its root span (-1 when
// the request is not sampled).
func (t *tracer) current(class int) (id uint64, root int32) {
	v := t.cur[class].Load()
	return v >> rootBits, int32(v&(1<<rootBits-1)) - 1
}

// recorded returns the span slots claimed so far. A slot reserved for a
// call or a hold still open when the pass stopped was never filled
// (span.filled).
func (t *tracer) recorded() []span {
	return t.spans[:min(t.next.Load(), int64(len(t.spans)))]
}

// filled reports whether the slot holds a span (every real span ends after
// the tracer was created).
func (s span) filled() bool { return s.end > 0 }

// selfTimes returns, for every span, its duration minus the part of its
// interval that its child spans cover. Children may nest, overlap one
// another, or stick out of the parent; the covered part is the union of
// their intervals clipped to the parent's.
func selfTimes(spans []span) []int64 {
	kids := make([][]int32, len(spans))
	for i, s := range spans {
		if s.parent >= 0 && int(s.parent) < len(spans) {
			kids[s.parent] = append(kids[s.parent], int32(i))
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] = s.end - s.start
		ks := kids[i]
		sort.Slice(ks, func(a, b int) bool { return spans[ks[a]].start < spans[ks[b]].start })
		edge := s.start // everything before edge is already accounted for
		for _, k := range ks {
			lo, hi := max(spans[k].start, edge), min(spans[k].end, s.end)
			if hi > lo {
				self[i] -= hi - lo
				edge = hi
			}
		}
	}
	return self
}

// layerSelf is the sampled-span view of one layer boundary.
type layerSelf struct {
	count          int
	meanNs, selfNs float64
}

// selfByLayer averages duration and self time per span name and class.
func selfByLayer(spans []span) [numSpanNames][2]layerSelf {
	var out [numSpanNames][2]layerSelf
	self := selfTimes(spans)
	for i, s := range spans {
		if !s.filled() {
			continue
		}
		l := &out[s.name][s.class]
		l.count++
		l.meanNs += float64(s.end - s.start)
		l.selfNs += float64(self[i])
	}
	for n := range out {
		for c := range out[n] {
			if l := &out[n][c]; l.count > 0 {
				l.meanNs /= float64(l.count)
				l.selfNs /= float64(l.count)
			}
		}
	}
	return out
}

// spanRecord is the -trace-out line format (one JSON object per span).
type spanRecord struct {
	Pass     string `json:"pass"`
	ID       int    `json:"id"`
	Parent   int    `json:"parent"`
	Name     string `json:"name"`
	Class    string `json:"class"`
	Request  uint64 `json:"request"`
	StartNs  int64  `json:"start_ns"`
	EndNs    int64  `json:"end_ns"`
	Combined bool   `json:"combined,omitempty"`
}

// writeSpans appends a pass's spans to path as JSON lines.
func writeSpans(path, workload, pass string, spans []span) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i, s := range spans {
		if !s.filled() {
			continue
		}
		err = enc.Encode(spanRecord{
			Pass: workload + "/" + pass, ID: i, Parent: int(s.parent),
			Name: spanNames[s.name], Class: classNames[s.class], Request: s.req,
			StartNs: s.start, EndNs: s.end, Combined: s.combined,
		})
		if err != nil {
			break
		}
	}
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
