package main

import (
	"fmt"
	"io"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/kvserver"
	"repro/internal/locks"
	"repro/internal/shardedkv"
	"repro/internal/stats"
)

// layerDef declares one per-layer metric of the traced run.
type layerDef struct {
	name   string
	unit   string
	better better
}

// perLayer lists every per-layer metric, grouped by the package it
// measures. README.md says which pass each comes from.
var perLayer = []layerDef{
	{"kvclient.call_us_mean", "us", lower},
	{"kvclient.interactive_p999_us", "us", lower},
	{"kvclient.bulk_p999_us", "us", lower},
	{"kvclient.interactive_over_slo_pct", "%", lower},
	{"kvclient.bulk_over_slo_pct", "%", lower},
	{"kvclient.bytes_out_per_op", "B/op", lower},
	{"kvclient.bytes_in_per_op", "B/op", lower},
	{"kvclient.conn_writes_per_op", "count/op", lower},
	{"kvclient.conn_reads_per_op", "count/op", lower},

	{"kvserver.interactive_exec_p50_us", "us", lower},
	{"kvserver.interactive_exec_p99_us", "us", lower},
	{"kvserver.bulk_exec_p50_us", "us", lower},
	{"kvserver.bulk_exec_p99_us", "us", lower},
	{"kvserver.interactive_wire_p50_us", "us", lower},
	{"kvserver.bulk_wire_p50_us", "us", lower},
	{"kvserver.proto_encode_ns_per_op", "ns/op", lower},
	{"kvserver.proto_decode_ns_per_op", "ns/op", lower},
	{"kvserver.proto_allocs_per_op", "count/op", lower},
	{"kvserver.proto_bytes_per_op", "B/op", lower},
	{"kvserver.admission_waited_per_kop", "count/kop", lower},
	{"kvserver.admission_rejected_pct", "%", lower},
	{"kvserver.error_responses_pct", "%", lower},
	{"kvserver.bad_conns", "count", lower},
	{"kvserver.range_truncations", "count", lower},

	{"shardedkv.call_ns_per_op", "ns/op", lower},
	{"shardedkv.self_ns_per_op", "ns/op", lower},
	{"shardedkv.under_lock_self_ns_per_take", "ns/take", lower},
	{"shardedkv.lock_takes_per_op", "count/op", lower},
	{"shardedkv.batch_locks_per_batch_op", "count/op", lower},
	{"shardedkv.ops_per_lock_take", "count/take", higher},
	{"shardedkv.combine_direct_pct", "%", lower},
	{"shardedkv.combine_handoffs_per_kop", "count/kop", lower},
	{"shardedkv.combine_depth_hw", "count", lower},
	{"shardedkv.combine_big_take_pct", "%", higher},
	{"shardedkv.degraded_shards", "count", lower},
	{"shardedkv.map_epoch", "count", lower},

	{"locks.interactive_wait_ns_per_op", "ns/op", lower},
	{"locks.bulk_wait_ns_per_op", "ns/op", lower},
	{"locks.interactive_wait_p99_us", "us", lower},
	{"locks.bulk_wait_p99_us", "us", lower},
	{"locks.hold_ns_per_take", "ns/take", lower},
	{"locks.hold_p99_us", "us", lower},
	{"locks.waited_pct", "%", lower},
	{"locks.try_fail_pct", "%", lower},
	{"locks.uncontended_big_pair_ns", "ns", lower},
	{"locks.uncontended_little_pair_ns", "ns", lower},

	{"core.interactive_window_ns_mean", "ns", lower},
	{"core.bulk_window_ns_mean", "ns", higher},
	{"core.epoch_pair_ns", "ns", lower},

	{"storage.get_ns", "ns", lower},
	{"storage.put_ns", "ns", lower},
	{"storage.range_ns", "ns", lower},
	{"storage.range_pairs_per_scan", "count", lower},
	{"storage.ns_per_op", "ns/op", lower},

	{"wal.ops_per_fsync", "count", higher},
	{"wal.fsyncs_per_interactive_op", "count/op", lower},
	{"wal.bytes_per_user_byte", "B/B", lower},
	{"wal.fsync_us_mean", "us", lower},
	{"wal.file_writes_per_op", "count/op", lower},
	{"wal.write_us_mean", "us", lower},
	{"wal.rotations", "count", lower},
	{"wal.recovery_s", "s", lower},
	{"wal.recovered_records", "count", higher},

	{"trace.overhead_pct", "%", lower},
	{"trace.spans_dropped", "count", lower},
}

// tracedRun is what one workload's traced run produced.
type tracedRun struct {
	metrics   map[string]metricVal
	budget    map[string][]budgetRow
	attempted uint64
	failed    uint64
}

// budgetRow is one line of a class's latency-budget table.
type budgetRow struct {
	Part string  `json:"part"`
	Us   float64 `json:"us"`
}

// passSums are a traced pass's wrapper sums, folded across shards.
type passSums struct {
	lock    lockStats
	tryFail uint64
	eng     engineStats
}

func (t *tracer) sums() *passSums {
	s := &passSums{lock: newLockStats()}
	for _, l := range t.locks {
		s.lock.add(&l.st)
		s.tryFail += l.tryFail.Load()
	}
	for _, e := range t.engines {
		s.eng.add(&e.st)
	}
	return s
}

// runTraced is the traced run of one workload: the same workload and seed
// as the end-to-end run, measured for about `total` in four passes —
// an untraced wire pass (the overhead baseline), the traced wire pass,
// the traced direct pass against the KV value, and the codec pass plus
// single-goroutine probes.
func runTraced(wl *workload, seed uint64, total time.Duration, scratch, traceOut string, out, stderr io.Writer) (*tracedRun, error) {
	base := passConfig{wl: wl, seed: seed, warm: time.Second, scratch: filepath.Join(scratch, "trace"), stderr: stderr}

	plain := base
	plain.dur = total / 5
	ur, err := runPass(plain)
	if err != nil {
		return nil, fmt.Errorf("untraced wire pass: %w", err)
	}

	wire := base
	wire.dur, wire.tr = total*2/5, newTracer(wl)
	wr, err := runPass(wire)
	if err != nil {
		return nil, fmt.Errorf("traced wire pass: %w", err)
	}
	ws := wire.tr.sums()

	direct := base
	direct.dur, direct.warm, direct.tr, direct.direct = total/5, time.Second/2, newTracer(wl), true
	dr, err := runPass(direct)
	if err != nil {
		return nil, fmt.Errorf("direct pass: %w", err)
	}
	ds := direct.tr.sums()

	for name, n := range map[string]uint64{"wire": ws.eng.unheld, "direct": ds.eng.unheld} {
		if n > 0 {
			return nil, fmt.Errorf("traced %s pass: %d engine calls ran without their paired shard lock held; lock/engine pairing is broken", name, n)
		}
	}

	codec := codecPass(wl, seed, total/10)
	pr := runProbes()

	tr := &tracedRun{
		metrics:   map[string]metricVal{},
		attempted: ur.attempted() + wr.attempted() + dr.attempted(),
		failed:    ur.failed() + wr.failed() + dr.failed(),
	}
	set := func(name string, v float64) {
		for _, d := range perLayer {
			if d.name == name {
				tr.metrics[name] = metricVal{Value: v, Unit: d.unit}
				return
			}
		}
		panic("per-layer metric not declared: " + name)
	}

	// kvclient: spans around each client call, counting connection wrapper.
	ops := float64(wr.attempted())
	classOps := [2]float64{float64(wr.class[0].attempted), float64(wr.class[1].attempted)}
	var callNs float64
	for c := range wr.class {
		callNs += wr.class[c].meanNs() * classOps[c]
	}
	set("kvclient.call_us_mean", ratio(callNs, ops)/1e3)
	var conn [4]float64
	for c, cn := range classNames {
		cr := &wr.class[c]
		set("kvclient."+cn+"_p999_us", usOf(stats.ExactPercentile(cr.lat, 99.9)))
		set("kvclient."+cn+"_over_slo_pct", pct(cr.overSLO, cr.attempted))
		st := &wire.tr.conns[c]
		conn[0] += float64(st.bytesOut.Load())
		conn[1] += float64(st.bytesIn.Load())
		conn[2] += float64(st.writes.Load())
		conn[3] += float64(st.reads.Load())
	}
	set("kvclient.bytes_out_per_op", ratio(conn[0], ops))
	set("kvclient.bytes_in_per_op", ratio(conn[1], ops))
	set("kvclient.conn_writes_per_op", ratio(conn[2], ops))
	set("kvclient.conn_reads_per_op", ratio(conn[3], ops))

	// kvserver: its own Stats (a server started after the preload, so the
	// percentiles cover warm-up and measured traffic only) and the codec.
	sv, sv0 := wr.after.server, wr.before.server
	exec := [2]kvserver.ClassServerStats{sv.Interactive, sv.Bulk}
	var wireUs [2]float64
	for c, cn := range classNames {
		set("kvserver."+cn+"_exec_p50_us", usOf(exec[c].P50Ns))
		set("kvserver."+cn+"_exec_p99_us", usOf(exec[c].P99Ns))
		wireUs[c] = usOf(stats.ExactPercentile(wr.class[c].lat, 50) - exec[c].P50Ns)
		set("kvserver."+cn+"_wire_p50_us", wireUs[c])
	}
	set("kvserver.proto_encode_ns_per_op", codec.encodeNs)
	set("kvserver.proto_decode_ns_per_op", codec.decodeNs)
	set("kvserver.proto_allocs_per_op", codec.allocs)
	set("kvserver.proto_bytes_per_op", codec.bytes)
	set("kvserver.admission_waited_per_kop", 1000*ratio(float64(sv.BulkWaited-sv0.BulkWaited), classOps[bulk]))
	set("kvserver.admission_rejected_pct", 100*ratio(float64(sv.BulkRejected-sv0.BulkRejected), classOps[bulk]))
	errs := sv.Interactive.Errors + sv.Bulk.Errors - sv0.Interactive.Errors - sv0.Bulk.Errors
	set("kvserver.error_responses_pct", 100*ratio(float64(errs), ops))
	set("kvserver.bad_conns", float64(sv.BadConns-sv0.BadConns))
	set("kvserver.range_truncations", float64(sv.RangeTruncations-sv0.RangeTruncations))

	// shardedkv: the direct pass (same op stream against the KV value, no
	// TCP) for call, self and lock-take figures; the served store's own
	// Stats for combining, degradation and the map epoch.
	dOps := float64(dr.attempted())
	dClassOps := [2]float64{float64(dr.class[0].attempted), float64(dr.class[1].attempted)}
	var dCall, dSelf [2]float64 // ns per op of the class
	dfs := &direct.tr.fs
	for c := range dr.class {
		dCall[c] = dr.class[c].meanNs()
		covered := float64(ds.lock.waitNs[c] + ds.lock.holdNs[c])
		if c == interactive {
			covered += float64(dfs.fsyncNs.Load() + dfs.writeNs.Load())
		}
		dSelf[c] = dCall[c] - ratio(covered, dClassOps[c])
	}
	dTakes := float64(ds.lock.takes[0] + ds.lock.takes[1])
	set("shardedkv.call_ns_per_op", ratio(dCall[0]*dClassOps[0]+dCall[1]*dClassOps[1], dOps))
	set("shardedkv.self_ns_per_op", ratio(dSelf[0]*dClassOps[0]+dSelf[1]*dClassOps[1], dOps))
	set("shardedkv.under_lock_self_ns_per_take", ratio(float64(ds.lock.holdNs[0]+ds.lock.holdNs[1]-ds.lock.engineNs[0]-ds.lock.engineNs[1]), dTakes))
	set("shardedkv.lock_takes_per_op", ratio(dTakes, dOps))
	var batchOps uint64
	for c := range dr.class {
		batchOps += dr.class[c].kinds[opMultiGet] + dr.class[c].kinds[opMultiPut]
	}
	set("shardedkv.batch_locks_per_batch_op", ratio(float64(dr.after.shards.BatchLocks-dr.before.shards.BatchLocks), float64(batchOps)))
	set("shardedkv.ops_per_lock_take", ratio(float64(ds.eng.ops()), dTakes))
	cb, cb0 := wr.after.combine, wr.before.combine
	combined := float64(cb.Combined - cb0.Combined)
	set("shardedkv.combine_direct_pct", 100*ratio(float64(cb.Direct-cb0.Direct), combined))
	set("shardedkv.combine_handoffs_per_kop", 1000*ratio(float64(cb.Handoffs-cb0.Handoffs), combined))
	set("shardedkv.combine_depth_hw", float64(cb.DepthHW))
	set("shardedkv.combine_big_take_pct", 100*ratio(float64(cb.BigTakes-cb0.BigTakes), float64(cb.LockTakes-cb0.LockTakes)))
	set("shardedkv.degraded_shards", float64(wr.degraded))
	set("shardedkv.map_epoch", float64(wr.mapEpoch))

	// locks and core: the timing lock of the wire pass, plus the probes.
	ls := &ws.lock
	takes := float64(ls.takes[0] + ls.takes[1])
	for c, cn := range classNames {
		set("locks."+cn+"_wait_ns_per_op", ratio(float64(ls.waitNs[c]), classOps[c]))
		set("locks."+cn+"_wait_p99_us", usOf(ls.wait[c].P99()))
		set("core."+cn+"_window_ns_mean", ratio(float64(ls.windowNs[c]), float64(ls.windowN[c])))
	}
	set("locks.hold_ns_per_take", ratio(float64(ls.holdNs[0]+ls.holdNs[1]), takes))
	set("locks.hold_p99_us", usOf(ls.hold.P99()))
	set("locks.waited_pct", 100*ratio(float64(ls.waited[0]+ls.waited[1]), takes))
	set("locks.try_fail_pct", 100*ratio(float64(ws.tryFail), float64(ws.tryFail)+takes))
	set("locks.uncontended_big_pair_ns", pr.bigPairNs)
	set("locks.uncontended_little_pair_ns", pr.littlePairNs)
	set("core.epoch_pair_ns", pr.epochPairNs)

	// storage: the timing engine of the wire pass.
	es := &ws.eng
	set("storage.get_ns", ratio(float64(es.getNs), float64(es.gets)))
	set("storage.put_ns", ratio(float64(es.putNs), float64(es.puts)))
	set("storage.range_ns", ratio(float64(es.rangeNs), float64(es.ranges)))
	set("storage.range_pairs_per_scan", ratio(float64(es.pairs), float64(es.ranges)))
	set("storage.ns_per_op", ratio(float64(es.ns()), float64(es.ops())))

	// wal: the timing filesystem of the wire pass and Store.WalStats.
	wfs := &wire.tr.fs
	wl1, wl0 := wr.after.wal, wr.before.wal
	appended := float64(wl1.Appended - wl0.Appended)
	syncs := float64(wl1.Syncs - wl0.Syncs)
	set("wal.ops_per_fsync", ratio(appended, syncs))
	set("wal.fsyncs_per_interactive_op", ratio(syncs, classOps[interactive]))
	set("wal.bytes_per_user_byte", ratio(float64(wl1.Bytes-wl0.Bytes), appended*float64(8+wl.vsize)))
	set("wal.fsync_us_mean", ratio(float64(wfs.fsyncNs.Load()), float64(wfs.fsyncs.Load()))/1e3)
	set("wal.file_writes_per_op", ratio(float64(wfs.writes.Load()), ops))
	set("wal.write_us_mean", ratio(float64(wfs.writeNs.Load()), float64(wfs.writes.Load()))/1e3)
	set("wal.rotations", float64(wl1.Rotations-wl0.Rotations))
	set("wal.recovery_s", wr.setup.recoveryS)
	set("wal.recovered_records", float64(wr.setup.recoveredRecords))

	// trace: what tracing cost, and whether the span buffer overflowed.
	plainRate, tracedRate := float64(ur.attempted())/ur.elapsed.Seconds(), ops/wr.elapsed.Seconds()
	set("trace.overhead_pct", 100*ratio(plainRate-tracedRate, plainRate))
	set("trace.spans_dropped", float64(wire.tr.dropped.Load()+direct.tr.dropped.Load()))

	// The latency budget, per class: what a served request's client-side
	// mean is made of. The parts under and after the shard lock are sums
	// over every request of the traced wire pass, attributed by the
	// acquiring worker's effective class; what they leave of the client
	// call is spent outside the lock — socket, codec, goroutine hand-offs,
	// kvserver's loop and shardedkv's own code — and no seam of the served
	// system separates those, so the table gives the remainder and, beside
	// it, the two independent estimates of its halves.
	tr.budget = map[string][]budgetRow{}
	for c, cn := range classNames {
		n := classOps[c]
		rows := []budgetRow{
			{"lock wait", ratio(float64(ls.waitNs[c]), n) / 1e3},
			{"under-lock self", ratio(float64(ls.holdNs[c]-ls.engineNs[c]), n) / 1e3},
			{"engine", ratio(float64(ls.engineNs[c]), n) / 1e3},
			{"WAL write", 0},
			{"fsync wait", 0},
		}
		if c == interactive {
			rows[3].Us = ratio(float64(wfs.writeNs.Load()), n) / 1e3
			rows[4].Us = ratio(float64(wfs.fsyncNs.Load()), n) / 1e3
		}
		call := wr.class[c].meanNs() / 1e3
		rest := call
		for _, r := range rows {
			rest -= r.Us
		}
		tr.budget[cn] = append(rows,
			budgetRow{"wire + kvserver + shardedkv self (remainder)", rest},
			budgetRow{"= client call mean", call},
			budgetRow{"est. wire (client p50 - server exec p50)", wireUs[c]},
			budgetRow{"est. shardedkv self (direct pass)", dSelf[c] / 1e3})
	}

	printPerLayer(out, wl.name, tr.metrics)
	printBudget(out, wl, tr.budget)
	printSpanSelf(out, "wire", wire.tr)
	printSpanSelf(out, "direct", direct.tr)
	if traceOut != "" {
		if err := writeSpans(traceOut, wl.name, "wire", wire.tr.recorded()); err != nil {
			return nil, err
		}
		if err := writeSpans(traceOut, wl.name, "direct", direct.tr.recorded()); err != nil {
			return nil, err
		}
	}
	return tr, nil
}

func printBudget(w io.Writer, wl *workload, budget map[string][]budgetRow) {
	fmt.Fprintf(w, "\n== %s: latency budget of a served request (us per request, traced wire pass) ==\n", wl.name)
	fmt.Fprintf(w, "  %-46s %14s %14s\n", "part", classNames[0], classNames[1])
	ia, bu := budget[classNames[0]], budget[classNames[1]]
	for i := range ia {
		fmt.Fprintf(w, "  %-46s %14.3f %14.3f\n", ia[i].Part, ia[i].Us, bu[i].Us)
	}
	if wl.pipeline {
		fmt.Fprintln(w, "  note: under the pipeline the lock, engine and WAL parts belong to the combining worker's class (spans marked combined)")
	}
}

// printSpanSelf prints the sampled-span view: per layer boundary, how
// long its spans were and how much of that no child span covers.
func printSpanSelf(w io.Writer, pass string, t *tracer) {
	spans := t.recorded()
	by := selfByLayer(spans)
	fmt.Fprintf(w, "\n  sampled spans, %s pass (1 request in %d, %d spans, %d dropped): mean / self ns\n", pass, sampleEvery, len(spans), t.dropped.Load())
	for n := range by {
		for c := range by[n] {
			if l := by[n][c]; l.count > 0 {
				fmt.Fprintf(w, "    %-16s %-12s n=%-8d %12.0f %12.0f\n", spanNames[n], classNames[c], l.count, l.meanNs, l.selfNs)
			}
		}
	}
}

// codecResult is the codec pass: the wire codec alone, per request.
type codecResult struct {
	encodeNs, decodeNs, allocs, bytes float64
}

// codecPass runs the workload's op stream through the proto codec with
// no socket: AppendRequest and the matching Append*Response are the
// encode side, DecodeRequest and DecodeResponse plus the payload decoder
// the decode side. Responses carry what the served store would return
// (every key exists). Ops are coded in blocks so the clock is read four
// times per block, not per op.
func codecPass(wl *workload, seed uint64, budget time.Duration) codecResult {
	const block = 64
	gens := [2]*opGen{newOpGen(wl, interactive, seed, zipfFor(wl)), newOpGen(wl, bulk, seed, zipfFor(wl))}
	val := newValue(wl.vsize)
	var reqs [block]kvserver.Request
	var keyBuf [block][maxBatch]uint64
	var kvBuf [block][maxBatch]shardedkv.Pair
	var reqFrames, respFrames [block][]byte
	pairs := make([]shardedkv.Pair, wl.span+1)
	for i := range pairs {
		pairs[i].Value = val
	}
	vals := make([][]byte, maxBatch)
	found := make([]bool, maxBatch)
	for i := range vals {
		vals[i], found[i] = val, true
	}

	var res codecResult
	var n int
	var encode, decode time.Duration
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	deadline := time.Now().Add(budget)
	for first := true; first || time.Now().Before(deadline); first = false {
		for i := range reqs {
			var o op
			class := i & 1
			gens[class].next(&o)
			r := kvserver.Request{ID: uint64(n + i), Class: uint8(class)}
			switch o.kind {
			case opGet:
				r.Op, r.Key = kvserver.OpGet, o.key
			case opPut:
				r.Op, r.Key, r.Value = kvserver.OpPut, o.key, val
			case opMultiGet:
				r.Op, r.Keys = kvserver.OpMultiGet, keyBuf[i][:copy(keyBuf[i][:], o.keys)]
			case opMultiPut:
				r.Op, r.KVs = kvserver.OpMultiPut, kvBuf[i][:len(o.keys)]
				for j, k := range o.keys {
					r.KVs[j] = shardedkv.Pair{Key: k, Value: val}
				}
			case opRange:
				r.Op, r.Lo, r.Hi = kvserver.OpRange, o.key, o.hi
			}
			reqs[i] = r
		}
		t0 := time.Now()
		for i := range reqs {
			reqFrames[i], _ = kvserver.AppendRequest(reqFrames[i][:0], &reqs[i])
		}
		t1 := time.Now()
		for i := range reqs {
			if _, err := kvserver.DecodeRequest(reqFrames[i][4:]); err != nil {
				panic(err) // the codec refused its own frame
			}
		}
		t2 := time.Now()
		for i := range reqs {
			r := &reqs[i]
			dst := respFrames[i][:0]
			switch r.Op {
			case kvserver.OpGet:
				dst, _ = kvserver.AppendGetResponse(dst, r.ID, val, true)
			case kvserver.OpPut:
				dst, _ = kvserver.AppendBoolResponse(dst, r.ID, false)
			case kvserver.OpMultiGet:
				dst, _ = kvserver.AppendMultiGetResponse(dst, r.ID, vals[:len(r.Keys)], found[:len(r.Keys)])
			case kvserver.OpMultiPut:
				dst, _ = kvserver.AppendMultiPutResponse(dst, r.ID, 0)
			case kvserver.OpRange:
				for j := range pairs {
					pairs[j].Key = r.Lo + uint64(j)
				}
				dst, _ = kvserver.AppendRangeResponse(dst, r.ID, pairs, false)
			}
			respFrames[i] = dst
		}
		t3 := time.Now()
		for i := range reqs {
			resp, err := kvserver.DecodeResponse(respFrames[i][4:])
			if err == nil {
				switch reqs[i].Op {
				case kvserver.OpGet:
					_, _, err = kvserver.DecodeGetPayload(resp.Payload)
				case kvserver.OpPut:
					_, err = kvserver.DecodeBoolPayload(resp.Payload)
				case kvserver.OpMultiGet:
					_, _, err = kvserver.DecodeMultiGetPayload(resp.Payload)
				case kvserver.OpMultiPut:
					_, err = kvserver.DecodeMultiPutPayload(resp.Payload)
				case kvserver.OpRange:
					_, err = kvserver.DecodeRangePayload(resp.Payload)
				}
			}
			if err != nil {
				panic(err)
			}
		}
		t4 := time.Now()
		encode += t1.Sub(t0) + t3.Sub(t2)
		decode += t2.Sub(t1) + t4.Sub(t3)
		n += block
	}
	runtime.ReadMemStats(&ms1)
	res.encodeNs = float64(encode.Nanoseconds()) / float64(n)
	res.decodeNs = float64(decode.Nanoseconds()) / float64(n)
	res.allocs = float64(ms1.Mallocs-ms0.Mallocs) / float64(n)
	res.bytes = float64(ms1.TotalAlloc-ms0.TotalAlloc) / float64(n)
	return res
}

// probeResult holds the single-goroutine probes.
type probeResult struct {
	bigPairNs, littlePairNs, epochPairNs float64
}

const probePairs = 1_000_000

// runProbes times an uncontended Acquire/Release pair on a lock from the
// served factory for each class, and an EpochStart/EpochEnd pair.
func runProbes() probeResult {
	pair := func(class core.Class) float64 {
		l := locks.FactoryASL()()
		w := core.NewWorker(core.WorkerConfig{Class: class})
		w.EpochStart(int(class))
		t0 := time.Now()
		for i := 0; i < probePairs; i++ {
			l.Acquire(w)
			l.Release(w)
		}
		d := time.Since(t0)
		w.EpochEnd(int(class), int64(classSLO[class]))
		return float64(d.Nanoseconds()) / probePairs
	}
	var pr probeResult
	pr.bigPairNs, pr.littlePairNs = pair(core.Big), pair(core.Little)
	w := core.NewWorker(core.WorkerConfig{Class: core.Little})
	t0 := time.Now()
	for i := 0; i < probePairs; i++ {
		w.EpochStart(bulk)
		w.EpochEnd(bulk, int64(sloBulk))
	}
	pr.epochPairNs = float64(time.Since(t0).Nanoseconds()) / probePairs
	return pr
}
