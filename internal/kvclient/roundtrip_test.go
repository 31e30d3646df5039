package kvclient

import (
	"bytes"
	"sync"
	"testing"

	"repro/internal/kvserver"
	"repro/internal/shardedkv"
)

// dialServed is a Client connected over loopback to an in-process
// kvserver on the default store — wire-point's served configuration —
// with key 5 holding a 64-byte value.
func dialServed(tb testing.TB) *Client {
	tb.Helper()
	srv, err := kvserver.New(kvserver.Config{Store: shardedkv.New(shardedkv.Config{})})
	if err != nil {
		tb.Fatal(err)
	}
	if err := srv.Listen("127.0.0.1:0"); err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { srv.Close() })
	c, err := Dial(srv.Addr().String())
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { c.Close() })
	if _, err := c.Put(kvserver.ClassInteractive, 5, bytes.Repeat([]byte{7}, 64)); err != nil {
		tb.Fatal(err)
	}
	return c
}

// TestRoundTripAllocs pins what one served round trip allocates across
// the whole process, both ends of the socket: a Get only the response
// frame its call owns, a Put only the store's copy of the value (the
// default engine, hashkv, keeps the slice it is given), because its
// response, which returns no bytes, is read into the client's reused
// buffer. A frame read that allocates (a length prefix read through a
// heap array) shows here twice, once per end.
func TestRoundTripAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under -race")
	}
	c := dialServed(t)
	val := bytes.Repeat([]byte{9}, 64)
	for _, tc := range []struct {
		name string
		max  float64
		call func() error
	}{
		{"Get", 1, func() error { _, _, err := c.Get(kvserver.ClassInteractive, 5); return err }},
		{"Put", 1, func() error { _, err := c.Put(kvserver.ClassInteractive, 5, val); return err }},
	} {
		got := testing.AllocsPerRun(500, func() {
			if err := tc.call(); err != nil {
				t.Fatal(err)
			}
		})
		if got > tc.max {
			t.Errorf("%s round trip: %v allocations, want at most %v", tc.name, got, tc.max)
		}
	}
}

// TestConcurrentWritesShareTheReusedBuffer: callers sharing one Client
// read their write responses into its one reused buffer, each decoding
// its own before the next call overwrites it. 4 goroutines put, then
// delete, keys no other goroutine touches, and every answer must be its
// own key's: inserted, then present. Under -race a decode that ran after
// the call released the connection is a reported race.
func TestConcurrentWritesShareTheReusedBuffer(t *testing.T) {
	c := dialServed(t)
	val := bytes.Repeat([]byte{3}, 64)
	var wg sync.WaitGroup
	for g := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for n := range 50 {
				k := uint64(1000 + n*4 + g)
				if ins, err := c.Put(kvserver.ClassBulk, k, val); err != nil || !ins {
					t.Errorf("Put(%d) = %v, %v; want a fresh insert", k, ins, err)
					return
				}
				if had, err := c.Delete(kvserver.ClassInteractive, k); err != nil || !had {
					t.Errorf("Delete(%d) = %v, %v; want the key present", k, had, err)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// BenchmarkRoundTripGet and BenchmarkRoundTripPut are the wire path's
// layer rows: one 64-byte point op end to end over loopback TCP against
// an in-process kvserver — client encode and write, server read, decode,
// execute and encode, client read and decode. Allocations are the whole
// process's, both ends of the socket.
func BenchmarkRoundTripGet(b *testing.B) {
	c := dialServed(b)
	b.ReportAllocs()
	for b.Loop() {
		if _, _, err := c.Get(kvserver.ClassInteractive, 5); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRoundTripPut(b *testing.B) {
	c := dialServed(b)
	val := bytes.Repeat([]byte{9}, 64)
	b.ReportAllocs()
	for b.Loop() {
		if _, err := c.Put(kvserver.ClassInteractive, 5, val); err != nil {
			b.Fatal(err)
		}
	}
}
