// Integration tests: a live server driven through the real client
// (package kvserver_test so kvclient can be imported without a cycle).
package kvserver_test

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/kvclient"
	"repro/internal/kvserver"
	"repro/internal/locks"
	"repro/internal/locks/locktest"
	"repro/internal/prng"
	"repro/internal/shardedkv"
)

// startServer builds a store from scfg, wraps it in a server with
// cfg's knobs, and returns the server plus its address. Cleanup is
// registered on t.
func startServer(t *testing.T, scfg shardedkv.Config, mod func(*kvserver.Config)) (*kvserver.Server, string) {
	t.Helper()
	st := shardedkv.New(scfg)
	cfg := kvserver.Config{
		Store:          st,
		SLOInteractive: 100 * time.Microsecond,
		SLOBulk:        2 * time.Millisecond,
	}
	if mod != nil {
		mod(&cfg)
	}
	srv, err := kvserver.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv, srv.Addr().String()
}

func dial(t *testing.T, addr string) *kvclient.Client {
	t.Helper()
	cl, err := kvclient.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	return cl
}

// TestClientServerBasic walks every operation once over the wire.
func TestClientServerBasic(t *testing.T) {
	_, addr := startServer(t, shardedkv.Config{Shards: 4}, nil)
	cl := dial(t, addr)

	if _, found, err := cl.Get(kvserver.ClassInteractive, 1); err != nil || found {
		t.Fatalf("get on empty store: found=%v err=%v", found, err)
	}
	ins, err := cl.Put(kvserver.ClassInteractive, 1, []byte("one"))
	if err != nil || !ins {
		t.Fatalf("put: inserted=%v err=%v", ins, err)
	}
	ins, err = cl.Put(kvserver.ClassBulk, 1, []byte("uno"))
	if err != nil || ins {
		t.Fatalf("overwrite put: inserted=%v err=%v", ins, err)
	}
	v, found, err := cl.Get(kvserver.ClassBulk, 1)
	if err != nil || !found || string(v) != "uno" {
		t.Fatalf("get: %q found=%v err=%v", v, found, err)
	}

	if _, err := cl.MultiPut(kvserver.ClassBulk, []shardedkv.Pair{
		{Key: 2, Value: []byte("two")}, {Key: 3, Value: []byte("three")},
	}); err != nil {
		t.Fatal(err)
	}
	vals, founds, err := cl.MultiGet(kvserver.ClassInteractive, []uint64{1, 2, 3, 4})
	if err != nil {
		t.Fatal(err)
	}
	if !founds[0] || !founds[1] || !founds[2] || founds[3] {
		t.Fatalf("multiget founds: %v", founds)
	}
	if string(vals[1]) != "two" {
		t.Fatalf("multiget vals: %q", vals[1])
	}

	kvs, more, err := cl.Range(kvserver.ClassBulk, 0, 100, 0)
	if err != nil || more {
		t.Fatalf("range: more=%v err=%v", more, err)
	}
	if len(kvs) != 3 || kvs[0].Key != 1 || kvs[2].Key != 3 {
		t.Fatalf("range pairs: %v", kvs)
	}
	kvs, more, err = cl.Range(kvserver.ClassBulk, 0, 100, 2)
	if err != nil || !more || len(kvs) != 2 {
		t.Fatalf("limited range: %d pairs, more=%v err=%v", len(kvs), more, err)
	}

	present, err := cl.Delete(kvserver.ClassInteractive, 2)
	if err != nil || !present {
		t.Fatalf("delete: present=%v err=%v", present, err)
	}
	if err := cl.Flush(kvserver.ClassBulk); err != nil {
		t.Fatal(err)
	}

	st, err := cl.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Interactive.Ops == 0 || st.Bulk.Ops == 0 {
		t.Fatalf("per-class ops not counted: %+v", st)
	}
	if st.Shards != 4 || st.Conns != 1 {
		t.Fatalf("stats topology: %+v", st)
	}
}

// TestPipelinedServer runs the basics against a combining-pipeline
// server (AsyncStore under the protocol).
func TestPipelinedServer(t *testing.T) {
	st := shardedkv.New(shardedkv.Config{Shards: 2})
	async := shardedkv.NewAsync(st, shardedkv.AsyncConfig{})
	srv, err := kvserver.New(kvserver.Config{Store: st, Async: async})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	cl := dial(t, srv.Addr().String())

	for k := uint64(0); k < 128; k++ {
		class := kvserver.ClassInteractive
		if k%2 == 0 {
			class = kvserver.ClassBulk
		}
		if _, err := cl.Put(class, k, []byte{byte(k)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := cl.Flush(kvserver.ClassBulk); err != nil {
		t.Fatal(err)
	}
	kvs, _, err := cl.Range(kvserver.ClassBulk, 0, 1000, 0)
	if err != nil || len(kvs) != 128 {
		t.Fatalf("range after pipelined puts: %d pairs, err=%v", len(kvs), err)
	}
	comb := async.AggregateCombineStats()
	if comb.Combined == 0 {
		t.Fatal("pipeline server executed nothing through the combiner")
	}
}

// TestServerAnswersPipelinedRequests: a peer may send several requests
// before reading (docs/protocol.md, "Pipelining"). On a raw connection
// 32 request frames go out in one write — 16 Puts, then a Get of each
// key — and the 32 responses must come back in request order, each
// echoing its request's id with status OK, the Gets reading the values
// the Puts before them wrote. The read runs against a deadline, so a
// server that never flushes fails the test instead of hanging it.
func TestServerAnswersPipelinedRequests(t *testing.T) {
	const keys = 16
	_, addr := startServer(t, shardedkv.Config{Shards: 4}, nil)
	raw, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	if err := raw.SetDeadline(time.Now().Add(5 * time.Second)); err != nil {
		t.Fatal(err)
	}

	out := []byte(kvserver.Magic)
	var reqs []kvserver.Request
	for i := 0; i < 2*keys; i++ {
		req := kvserver.Request{ID: uint64(100 + i), Op: kvserver.OpPut, Class: uint8(i % 2), Key: uint64(i), Value: []byte{byte(i)}}
		if i >= keys {
			req = kvserver.Request{ID: uint64(100 + i), Op: kvserver.OpGet, Class: uint8(i % 2), Key: uint64(i - keys)}
		}
		if out, err = kvserver.AppendRequest(out, &req); err != nil {
			t.Fatal(err)
		}
		reqs = append(reqs, req)
	}
	if _, err := raw.Write(out); err != nil {
		t.Fatal(err)
	}

	br := bufio.NewReader(raw)
	for i, req := range reqs {
		frame, err := kvserver.ReadFrame(br, nil)
		if err != nil {
			t.Fatalf("response %d of %d: %v", i, len(reqs), err)
		}
		resp, err := kvserver.DecodeResponse(frame)
		if err != nil {
			t.Fatalf("response %d: %v", i, err)
		}
		if resp.ID != req.ID || resp.Status != kvserver.StatusOK {
			t.Fatalf("response %d: id %d status %s, want id %d OK: answered out of request order", i, resp.ID, kvserver.StatusText(resp.Status), req.ID)
		}
		if req.Op != kvserver.OpGet {
			continue
		}
		v, found, err := kvserver.DecodeGetPayload(resp.Payload)
		if err != nil || !found || len(v) != 1 || v[0] != byte(req.Key) {
			t.Fatalf("Get(%d) = %v, %v, %v: want the value the pipelined Put wrote", req.Key, v, found, err)
		}
	}
}

// TestClientVsModelLinearizability runs concurrent clients, each
// owning a disjoint key stripe with a local model, checking every
// response against the model and the final state against a full scan.
// Classes alternate per op, so interactive and bulk interleave on
// every connection.
func TestClientVsModelLinearizability(t *testing.T) {
	for _, eng := range shardedkv.AllEngines() {
		t.Run(eng.Name, func(t *testing.T) {
			_, addr := startServer(t, shardedkv.Config{Shards: 4, NewEngine: eng.New}, nil)

			const workers = 4
			opsPer := 1200
			if testing.Short() {
				opsPer = 250
			}
			keysPer := uint64(128)
			models := make([]map[uint64]string, workers)
			var wg sync.WaitGroup
			errs := make(chan error, workers)
			for wi := 0; wi < workers; wi++ {
				models[wi] = make(map[uint64]string)
				wg.Add(1)
				go func(wi int) {
					defer wg.Done()
					cl, err := kvclient.Dial(addr)
					if err != nil {
						errs <- err
						return
					}
					defer cl.Close()
					model := models[wi]
					rng := prng.NewSplitMix64(uint64(wi) * 7919)
					base := uint64(wi) << 32
					for op := 0; op < opsPer; op++ {
						k := base + rng.Uint64()%keysPer
						class := kvserver.ClassInteractive
						if op%2 == 1 {
							class = kvserver.ClassBulk
						}
						switch rng.Uint64() % 4 {
						case 0, 1: // put
							val := fmt.Sprintf("w%d-%d", wi, op)
							ins, err := cl.Put(class, k, []byte(val))
							if err != nil {
								errs <- err
								return
							}
							_, had := model[k]
							if ins == had {
								errs <- fmt.Errorf("worker %d op %d: put inserted=%v but model had=%v", wi, op, ins, had)
								return
							}
							model[k] = val
						case 2: // get
							v, found, err := cl.Get(class, k)
							if err != nil {
								errs <- err
								return
							}
							want, had := model[k]
							if found != had || (had && string(v) != want) {
								errs <- fmt.Errorf("worker %d op %d: get %q/%v, model %q/%v", wi, op, v, found, want, had)
								return
							}
						case 3: // delete
							present, err := cl.Delete(class, k)
							if err != nil {
								errs <- err
								return
							}
							_, had := model[k]
							if present != had {
								errs <- fmt.Errorf("worker %d op %d: delete present=%v, model had=%v", wi, op, present, had)
								return
							}
							delete(model, k)
						}
					}
					// Stripe-wide final check over one batched read.
					keys := make([]uint64, 0, keysPer)
					for k := base; k < base+keysPer; k++ {
						keys = append(keys, k)
					}
					vals, founds, err := cl.MultiGet(kvserver.ClassBulk, keys)
					if err != nil {
						errs <- err
						return
					}
					for i, k := range keys {
						want, had := model[k]
						if founds[i] != had || (had && string(vals[i]) != want) {
							errs <- fmt.Errorf("worker %d final: key %d got %q/%v want %q/%v", wi, k, vals[i], founds[i], want, had)
							return
						}
					}
				}(wi)
			}
			wg.Wait()
			close(errs)
			for err := range errs {
				t.Fatal(err)
			}

			// Global final state: one full scan must equal the union of
			// the models.
			cl := dial(t, addr)
			total := 0
			for _, m := range models {
				total += len(m)
			}
			kvs, more, err := cl.Range(kvserver.ClassBulk, 0, ^uint64(0), 0)
			if err != nil || more {
				t.Fatalf("final scan: more=%v err=%v", more, err)
			}
			if len(kvs) != total {
				t.Fatalf("final scan saw %d keys, models hold %d", len(kvs), total)
			}
			for _, kv := range kvs {
				m := models[kv.Key>>32]
				if want, ok := m[kv.Key]; !ok || string(kv.Value) != want {
					t.Fatalf("final scan key %d: %q, model %q/%v", kv.Key, kv.Value, want, ok)
				}
			}
		})
	}
}

// TestClassMappingAtLock is the class-mapping contract test: every
// interactive request must reach the shard lock as big-class and
// every bulk request as little-class, on the plain store and through
// the combining pipeline. Probe-wrapped locks observe the class of the
// worker that acquires. One connection issues a block of each class,
// then alternates the classes request by request: its two workers must
// never trade requests.
func TestClassMappingAtLock(t *testing.T) {
	for _, pipelined := range []bool{false, true} {
		name := "store"
		if pipelined {
			name = "async"
		}
		t.Run(name, func(t *testing.T) {
			var mu sync.Mutex
			var probes []*locktest.ClassProbe
			scfg := shardedkv.Config{
				Shards: 4,
				NewLock: func() locks.WLock {
					p := locktest.WithClassProbe(locks.FactoryASL()())
					mu.Lock()
					probes = append(probes, p)
					mu.Unlock()
					return p
				},
			}
			_, addr := startServer(t, scfg, func(cfg *kvserver.Config) {
				if pipelined {
					cfg.Async = shardedkv.NewAsync(cfg.Store, shardedkv.AsyncConfig{})
				}
			})
			cl := dial(t, addr)

			sum := func() locktest.ClassProbeStats {
				mu.Lock()
				defer mu.Unlock()
				var s locktest.ClassProbeStats
				for _, p := range probes {
					st := p.Stats()
					s.BigAcquires += st.BigAcquires
					s.LittleAcquires += st.LittleAcquires
				}
				return s
			}

			const n = 50
			for i := uint64(0); i < n; i++ {
				if _, err := cl.Put(kvserver.ClassInteractive, i, []byte("v")); err != nil {
					t.Fatal(err)
				}
			}
			after := sum()
			if after.BigAcquires != n {
				t.Fatalf("interactive ops: big acquires = %d, want %d", after.BigAcquires, n)
			}
			if after.LittleAcquires != 0 {
				t.Fatalf("interactive ops leaked %d little-class acquires", after.LittleAcquires)
			}

			for i := uint64(0); i < n; i++ {
				if _, _, err := cl.Get(kvserver.ClassBulk, i); err != nil {
					t.Fatal(err)
				}
			}
			end := sum()
			if got := end.LittleAcquires; got != n {
				t.Fatalf("bulk ops: little acquires = %d, want %d", got, n)
			}
			if end.BigAcquires != after.BigAcquires {
				t.Fatalf("bulk ops leaked big-class acquires: %d -> %d", after.BigAcquires, end.BigAcquires)
			}

			// Interleaved: the class flips on every request, and each
			// request's one lock take lands under its own class.
			for i := uint64(0); i < 4*n; i++ {
				class, wantBig, wantLittle := kvserver.ClassInteractive, uint64(1), uint64(0)
				if i%2 == 1 {
					class, wantBig, wantLittle = kvserver.ClassBulk, 0, 1
				}
				op, before := "Put", sum()
				var err error
				if i%4 < 2 {
					_, err = cl.Put(class, i, []byte("w"))
				} else {
					op = "Get"
					_, _, err = cl.Get(class, i-2)
				}
				if err != nil {
					t.Fatal(err)
				}
				got := sum()
				big, little := got.BigAcquires-before.BigAcquires, got.LittleAcquires-before.LittleAcquires
				if big != wantBig || little != wantLittle {
					t.Fatalf("request %d (%s, class %d): big/little acquires %d/%d, want %d/%d",
						i, op, class, big, little, wantBig, wantLittle)
				}
			}
		})
	}
}

// TestAdmissionOverServer drives eight bulk writers and one
// interactive writer at one shard whose little-class critical sections
// sleep under the lock, so bulk arrivals queue at the shard lock, the
// one place the server restricts concurrency: every write of either
// class must succeed, and every bulk write must read back.
func TestAdmissionOverServer(t *testing.T) {
	scfg := shardedkv.Config{Shards: 1, CSPad: func(w *core.Worker) {
		if w.Class() == core.Little {
			time.Sleep(50 * time.Microsecond)
		}
	}}
	_, addr := startServer(t, scfg, nil)

	const writers, puts = 8, 50
	var wg sync.WaitGroup
	for i := 0; i < writers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			cl, err := kvclient.Dial(addr)
			if err != nil {
				t.Error(err)
				return
			}
			defer cl.Close()
			for j := 0; j < puts; j++ {
				if _, err := cl.Put(kvserver.ClassBulk, uint64(i*puts+j), []byte("x")); err != nil {
					t.Errorf("bulk writer %d put %d: %v", i, j, err)
					return
				}
			}
		}(i)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()

	// The interactive writer's keys lie past the bulk writers', so it
	// overwrites none of theirs.
	cl := dial(t, addr)
	for i := uint64(writers * puts); ; i++ {
		select {
		case <-done:
		default:
			if _, err := cl.Put(kvserver.ClassInteractive, i, []byte("y")); err != nil {
				t.Fatalf("interactive put beside the bulk writers: %v", err)
			}
			continue
		}
		break
	}
	st, err := cl.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Bulk.Ops != writers*puts || st.Bulk.Errors != 0 || st.Interactive.Errors != 0 {
		t.Fatalf("bulk %+v, interactive %+v; want %d bulk ops and no errors", st.Bulk, st.Interactive, writers*puts)
	}
	for k := uint64(0); k < writers*puts; k++ {
		v, ok, err := cl.Get(kvserver.ClassInteractive, k)
		if err != nil || !ok || string(v) != "x" {
			t.Fatalf("bulk key %d reads %q, found=%v, err=%v; want \"x\"", k, v, ok, err)
		}
	}
}

// TestGracefulClose closes the server under load: Close must return,
// all in-flight calls must resolve (success or error, never a hang),
// and later calls must fail fast.
func TestGracefulClose(t *testing.T) {
	srv, addr := startServer(t, shardedkv.Config{Shards: 2}, nil)

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			cl, err := kvclient.Dial(addr)
			if err != nil {
				return
			}
			defer cl.Close()
			for k := uint64(0); ; k++ {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := cl.Put(kvserver.ClassInteractive, k, []byte("v")); err != nil {
					return // server went away mid-run: expected
				}
			}
		}(i)
	}
	time.Sleep(50 * time.Millisecond)

	done := make(chan struct{})
	go func() { srv.Close(); close(done) }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Close hung with connections in flight")
	}
	close(stop)
	wg.Wait()

	if _, err := kvclient.Dial(addr); err == nil {
		t.Fatal("dial succeeded after Close")
	}
}

// TestBadHandshakeAndOversizeFrame: protocol violations cost the
// offender its connection, nothing more.
func TestBadHandshakeAndOversizeFrame(t *testing.T) {
	_, addr := startServer(t, shardedkv.Config{Shards: 1}, nil)

	// Wrong magic: the server hangs up on the offender.
	raw, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	raw.Write([]byte("BAD0"))
	raw.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, err := raw.Read(make([]byte, 1)); err == nil {
		t.Fatal("server answered a bad handshake")
	}
	raw.Close()

	// A well-behaved client on the same server still works.
	cl := dial(t, addr)
	if _, err := cl.Put(kvserver.ClassInteractive, 1, []byte("v")); err != nil {
		t.Fatal(err)
	}

	// Worker runs on: value of exactly MaxValueLen is legal.
	big := make([]byte, kvserver.MaxValueLen)
	if _, err := cl.Put(kvserver.ClassBulk, 2, big); err != nil {
		t.Fatalf("max-size value refused: %v", err)
	}
	v, found, err := cl.Get(kvserver.ClassBulk, 2)
	if err != nil || !found || len(v) != kvserver.MaxValueLen {
		t.Fatalf("max-size value round trip: len=%d found=%v err=%v", len(v), found, err)
	}
}

// TestOversizeRangeOverWire: a scan whose encoding would pass MaxFrame
// is refused in-stream with StatusErrTooLarge — with and without the
// pipeline — and the connection goes on serving, the same
// scan under a limit that fits included.
func TestOversizeRangeOverWire(t *testing.T) {
	for _, pipelined := range []bool{false, true} {
		t.Run(fmt.Sprintf("pipeline=%v", pipelined), func(t *testing.T) {
			_, addr := startServer(t, shardedkv.Config{Shards: 2}, func(cfg *kvserver.Config) {
				if pipelined {
					cfg.Async = shardedkv.NewAsync(cfg.Store, shardedkv.AsyncConfig{})
				}
			})
			cl := dial(t, addr)
			big := make([]byte, kvserver.MaxValueLen)
			const keys = kvserver.MaxFrame/kvserver.MaxValueLen + 1
			for k := uint64(0); k < keys; k++ {
				if _, err := cl.Put(kvserver.ClassBulk, k, big); err != nil {
					t.Fatal(err)
				}
			}
			_, _, err := cl.Range(kvserver.ClassBulk, 0, keys, 0)
			var se *kvclient.StatusError
			if !errors.As(err, &se) || se.Status != kvserver.StatusErrTooLarge {
				t.Fatalf("over-large scan: %v, want StatusErrTooLarge", err)
			}
			kvs, more, err := cl.Range(kvserver.ClassBulk, 0, keys, 8)
			if err != nil || !more || len(kvs) != 8 || len(kvs[7].Value) != kvserver.MaxValueLen {
				t.Fatalf("limited scan after the refusal: %d pairs, more=%v, err=%v", len(kvs), more, err)
			}
		})
	}
}

// TestOversizeMultiGetOverWire: a MultiGet whose values sum past
// MaxFrame is refused in-stream with StatusErrTooLarge before the
// response is assembled — with and without the pipeline — and the
// connection goes on serving, the same keys in two halves
// included.
func TestOversizeMultiGetOverWire(t *testing.T) {
	for _, pipelined := range []bool{false, true} {
		t.Run(fmt.Sprintf("pipeline=%v", pipelined), func(t *testing.T) {
			_, addr := startServer(t, shardedkv.Config{Shards: 2}, func(cfg *kvserver.Config) {
				if pipelined {
					cfg.Async = shardedkv.NewAsync(cfg.Store, shardedkv.AsyncConfig{})
				}
			})
			cl := dial(t, addr)
			big := make([]byte, kvserver.MaxValueLen)
			keys := make([]uint64, kvserver.MaxFrame/kvserver.MaxValueLen+1)
			for i := range keys {
				keys[i] = uint64(i)
				if _, err := cl.Put(kvserver.ClassBulk, keys[i], big); err != nil {
					t.Fatal(err)
				}
			}
			_, _, err := cl.MultiGet(kvserver.ClassBulk, keys)
			var se *kvclient.StatusError
			if !errors.As(err, &se) || se.Status != kvserver.StatusErrTooLarge {
				t.Fatalf("over-large MultiGet: %v, want StatusErrTooLarge", err)
			}
			for _, half := range [][]uint64{keys[:8], keys[8:]} {
				vals, found, err := cl.MultiGet(kvserver.ClassBulk, half)
				if err != nil || len(vals) != len(half) || !found[0] || len(vals[len(half)-1]) != kvserver.MaxValueLen {
					t.Fatalf("MultiGet of %d keys after the refusal: %d values, %v", len(half), len(vals), err)
				}
			}
		})
	}
}
