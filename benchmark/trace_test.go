package main

import "testing"

func TestSelfTime(t *testing.T) {
	sp := func(parent int32, start, end int64) span { return span{parent: parent, start: start, end: end} }
	for _, tc := range []struct {
		name  string
		spans []span
		want  []int64
	}{
		{"no children", []span{sp(-1, 0, 100)}, []int64{100}},
		{"disjoint children", []span{sp(-1, 0, 100), sp(0, 10, 30), sp(0, 50, 60)}, []int64{70, 20, 10}},
		{"nested: a grandchild is its parent's business", []span{sp(-1, 0, 100), sp(0, 10, 60), sp(1, 20, 40)}, []int64{50, 30, 20}},
		{"overlapping children count once", []span{sp(-1, 0, 100), sp(0, 10, 50), sp(0, 30, 70)}, []int64{40, 40, 40}},
		{"a child inside another child", []span{sp(-1, 0, 100), sp(0, 10, 80), sp(0, 20, 30)}, []int64{30, 70, 10}},
		{"children sticking out are clipped", []span{sp(-1, 100, 200), sp(0, 50, 120), sp(0, 190, 260)}, []int64{70, 70, 70}},
		{"child recorded before its parent", []span{sp(1, 10, 20), sp(-1, 0, 100)}, []int64{10, 90}},
		{"children fully covering", []span{sp(-1, 0, 100), sp(0, 0, 60), sp(0, 60, 100)}, []int64{0, 60, 40}},
	} {
		got := selfTimes(tc.spans)
		for i := range tc.want {
			if got[i] != tc.want[i] {
				t.Errorf("%s: self times %v, want %v", tc.name, got, tc.want)
				break
			}
		}
	}
}

func TestSelfByLayerAveragesPerNameAndClass(t *testing.T) {
	spans := []span{
		{name: spClientCall, class: interactive, parent: -1, start: 0, end: 100},
		{name: spLockHold, class: interactive, parent: 0, start: 10, end: 40},
		{name: spClientCall, class: interactive, parent: -1, start: 200, end: 260},
		{name: spClientCall, class: bulk, parent: -1, start: 0, end: 10},
		{}, // a reserved slot that was never filled
	}
	by := selfByLayer(spans)
	if l := by[spClientCall][interactive]; l.count != 2 || l.meanNs != 80 || l.selfNs != 65 {
		t.Errorf("interactive client calls: %+v, want count 2 mean 80 self 65", l)
	}
	if l := by[spClientCall][bulk]; l.count != 1 || l.meanNs != 10 {
		t.Errorf("bulk client calls: %+v, want one span of 10 (the empty slot must not count)", l)
	}
}

func TestTracerSamplingAndCurrentRequest(t *testing.T) {
	tr := &tracer{spans: make([]span, 4)}
	tr.recording.Store(true)
	if root := tr.begin(bulk, 3); root != -1 {
		t.Errorf("request 3 sampled (root %d); only multiples of %d are", root, sampleEvery)
	}
	if id, root := tr.current(bulk); id != 3 || root != -1 {
		t.Errorf("current = (%d, %d), want (3, -1)", id, root)
	}
	root := tr.begin(bulk, 2*sampleEvery)
	if id, r := tr.current(bulk); root < 0 || id != 2*sampleEvery || r != root {
		t.Errorf("current = (%d, %d), want (%d, %d)", id, r, 2*sampleEvery, root)
	}
	if id, r := tr.current(interactive); id != 0 || r != -1 {
		t.Errorf("the other class has a request in flight: (%d, %d)", id, r)
	}
	tr.end(bulk)
	if id, r := tr.current(bulk); id != 0 || r != -1 {
		t.Errorf("after end: (%d, %d), want none", id, r)
	}
	for i := 0; i < 5; i++ {
		tr.claim()
	}
	if tr.dropped.Load() != 2 || len(tr.recorded()) != 4 {
		t.Errorf("a 4-slot buffer after 6 claims: %d dropped, %d recorded; want 2 and 4", tr.dropped.Load(), len(tr.recorded()))
	}
}
