package kvserver_test

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/kvclient"
	"repro/internal/kvserver"
	"repro/internal/shardedkv"
)

// Layer microbenchmarks for the wire path (ROADMAP 1c): the codec at the
// benchmark's two value sizes, and one served scan over loopback. Run
// with `make microbench`; allocations are reported on every row.

const (
	benchBatch = 16  // keys per MultiGet/MultiPut, as benchmark/ drives them
	benchScan  = 513 // pairs per Range, as scan-mixed drives it
)

var benchSizes = []int{64, 4096}

func benchPairs(n, vsize int) []shardedkv.Pair {
	val := bytes.Repeat([]byte{7}, vsize)
	kvs := make([]shardedkv.Pair, n)
	for i := range kvs {
		kvs[i] = shardedkv.Pair{Key: uint64(i), Value: val}
	}
	return kvs
}

// must unwraps an encoder's result outside the timed loop.
func must(wire []byte, err error) []byte {
	if err != nil {
		panic(err)
	}
	return wire
}

// Package-level sinks keep the compiler from discarding a decode.
var (
	sinkReq   kvserver.Request
	sinkVal   []byte
	sinkVals  [][]byte
	sinkPairs []shardedkv.Pair
	sinkBool  bool
	sinkInt   int
)

func BenchmarkRequestCodec(b *testing.B) {
	for _, vsize := range benchSizes {
		kvs := benchPairs(benchBatch, vsize)
		keys := make([]uint64, benchBatch)
		reqs := []kvserver.Request{
			{ID: 1, Op: kvserver.OpGet, Class: kvserver.ClassInteractive, Key: 42},
			{ID: 2, Op: kvserver.OpPut, Class: kvserver.ClassInteractive, Key: 42, Value: kvs[0].Value},
			{ID: 3, Op: kvserver.OpMultiGet, Class: kvserver.ClassBulk, Keys: keys},
			{ID: 4, Op: kvserver.OpMultiPut, Class: kvserver.ClassBulk, KVs: kvs},
			{ID: 5, Op: kvserver.OpRange, Class: kvserver.ClassBulk, Lo: 1, Hi: 513},
		}
		names := []string{"Get", "Put", "MultiGet16", "MultiPut16", "Range"}
		for i := range reqs {
			req := &reqs[i]
			if vsize != benchSizes[0] && req.Op != kvserver.OpPut && req.Op != kvserver.OpMultiPut {
				continue // no value in the request: one size is enough
			}
			name := fmt.Sprintf("%s/%dB", names[i], vsize)
			wire := must(kvserver.AppendRequest(nil, req))
			b.Run("AppendRequest/"+name, func(b *testing.B) {
				b.ReportAllocs()
				buf := make([]byte, 0, len(wire))
				for b.Loop() {
					buf, _ = kvserver.AppendRequest(buf[:0], req)
				}
			})
			b.Run("DecodeRequest/"+name, func(b *testing.B) {
				b.ReportAllocs()
				for b.Loop() {
					sinkReq, _ = kvserver.DecodeRequest(wire[4:])
				}
			})
		}
	}
}

func BenchmarkResponseCodec(b *testing.B) {
	for _, vsize := range benchSizes {
		kvs := benchPairs(benchScan, vsize)
		vals, found := make([][]byte, benchBatch), make([]bool, benchBatch)
		for i := range vals {
			vals[i], found[i] = kvs[i].Value, true
		}
		size := fmt.Sprintf("/%dB", vsize)

		get := must(kvserver.AppendGetResponse(nil, 1, vals[0], true))
		b.Run("AppendGetResponse"+size, func(b *testing.B) {
			b.ReportAllocs()
			buf := make([]byte, 0, len(get))
			for b.Loop() {
				buf, _ = kvserver.AppendGetResponse(buf[:0], 1, vals[0], true)
			}
		})
		b.Run("DecodeGetPayload"+size, func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				sinkVal, _, _ = kvserver.DecodeGetPayload(get[14:])
			}
		})

		multi := must(kvserver.AppendMultiGetResponse(nil, 2, vals, found))
		b.Run("AppendMultiGetResponse16"+size, func(b *testing.B) {
			b.ReportAllocs()
			buf := make([]byte, 0, len(multi))
			for b.Loop() {
				buf, _ = kvserver.AppendMultiGetResponse(buf[:0], 2, vals, found)
			}
		})
		b.Run("DecodeMultiGetPayload16"+size, func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				sinkVals, _, _ = kvserver.DecodeMultiGetPayload(multi[14:])
			}
		})

		rng := must(kvserver.AppendRangeResponse(nil, 3, kvs, false))
		b.Run("AppendRangeResponse513"+size, func(b *testing.B) {
			b.ReportAllocs()
			buf := make([]byte, 0, len(rng))
			for b.Loop() {
				buf, _ = kvserver.AppendRangeResponse(buf[:0], 3, kvs, false)
			}
		})
		b.Run("DecodeRangePayload513"+size, func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				sinkPairs, _ = kvserver.DecodeRangePayload(rng[14:])
			}
		})
	}

	// The fixed-size responses: a bool (Put, Delete) and a count (MultiPut).
	b.Run("AppendBoolResponse", func(b *testing.B) {
		b.ReportAllocs()
		buf := make([]byte, 0, 32)
		for b.Loop() {
			buf, _ = kvserver.AppendBoolResponse(buf[:0], 4, true)
		}
	})
	b.Run("AppendMultiPutResponse", func(b *testing.B) {
		b.ReportAllocs()
		buf := make([]byte, 0, 32)
		for b.Loop() {
			buf, _ = kvserver.AppendMultiPutResponse(buf[:0], 5, benchBatch)
		}
	})
	okBool := must(kvserver.AppendBoolResponse(nil, 4, true))
	b.Run("DecodeBoolPayload", func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			sinkBool, _ = kvserver.DecodeBoolPayload(okBool[14:])
		}
	})
	okCount := must(kvserver.AppendMultiPutResponse(nil, 5, benchBatch))
	b.Run("DecodeMultiPutPayload", func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			sinkInt, _ = kvserver.DecodeMultiPutPayload(okCount[14:])
		}
	})
}

// BenchmarkServedRange513 is one bulk 513-pair scan end to end over
// loopback TCP — client encode, server decode, the store's scan over two
// btree shards, the streamed response, client decode — on scan-mixed's
// served configuration. Allocations are the whole process's, both sides
// of the socket.
func BenchmarkServedRange513(b *testing.B) {
	st := shardedkv.New(shardedkv.Config{Shards: 2, NewEngine: func(int) shardedkv.Engine { return shardedkv.NewBTreeEngine() }})
	srv, err := kvserver.New(kvserver.Config{Store: st})
	if err != nil {
		b.Fatal(err)
	}
	if err := srv.Listen("127.0.0.1:0"); err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	cl, err := kvclient.Dial(srv.Addr().String())
	if err != nil {
		b.Fatal(err)
	}
	defer cl.Close()
	if _, err := cl.MultiPut(kvserver.ClassBulk, benchPairs(4096, 64)); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	lo := uint64(0)
	for b.Loop() {
		kvs, _, err := cl.Range(kvserver.ClassBulk, lo, lo+benchScan-1, 0)
		if err != nil || len(kvs) != benchScan {
			b.Fatalf("scan from %d: %d pairs, %v", lo, len(kvs), err)
		}
		sinkPairs = kvs
		lo = (lo + 97) % (4096 - benchScan)
	}
}
