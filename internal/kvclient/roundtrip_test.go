package kvclient

import (
	"bytes"
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
// frame its call owns, a Put that frame and the server's copy of the
// value. A frame read that allocates (a length prefix read through a
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
		{"Put", 2, func() error { _, err := c.Put(kvserver.ClassInteractive, 5, val); return err }},
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
