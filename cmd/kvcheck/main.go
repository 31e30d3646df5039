// Command kvcheck is the durability verifier behind `make wal-smoke`:
// it fills a kvserver with a deterministic keyset over the wire, and
// after the server is killed and restarted, verifies every key it
// promised durable came back.
//
// Usage:
//
//	kvcheck -addr 127.0.0.1:7877 -n 2000 -mode fill     # write keys 0..n-1
//	kvcheck -addr 127.0.0.1:7877 -n 2000 -mode verify   # after kill+restart
//
// Fill writes every key with the INTERACTIVE class: with the server's
// -wal enabled those acks arrive only after the record's group commit,
// so each acked key is a durability promise a kill -9 must not break.
// A trailing slice of bulk-class writes (-bulk fraction) rides along
// unverified-on-loss: bulk acks are async, so verify only demands that
// whatever survived has the right bytes. Exit status: 0 = consistent,
// 1 = a durability promise was broken, 2 = usage/connection error.
package main

import (
	"encoding/binary"
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/kvclient"
	"repro/internal/kvserver"
)

// valueFor derives key k's expected payload: key echo plus a fixed tag
// so a torn or misdirected replay cannot fake a match.
func valueFor(k uint64) []byte {
	v := make([]byte, 16)
	binary.LittleEndian.PutUint64(v[:8], k^0x5bd1e995)
	copy(v[8:], "kvcheck!")
	return v
}

func main() {
	addr := flag.String("addr", "127.0.0.1:7877", "kvserver address")
	n := flag.Uint64("n", 2_000, "keys in the deterministic set")
	mode := flag.String("mode", "", "fill | verify")
	bulk := flag.Float64("bulk", 0.25, "fraction of the keyset written bulk-class (async ack; may legally be lost)")
	dialTimeout := flag.Duration("dial-timeout", 5*time.Second, "retry window for connecting")
	flag.Parse()

	if *mode != "fill" && *mode != "verify" {
		fmt.Fprintln(os.Stderr, "kvcheck: -mode must be fill or verify")
		os.Exit(2)
	}
	if *bulk < 0 || *bulk > 1 {
		fmt.Fprintln(os.Stderr, "kvcheck: -bulk must be in [0,1]")
		os.Exit(2)
	}
	// Keys below syncedUpTo are written interactive-class (sync-wait
	// ack: a durability promise); the rest bulk-class.
	syncedUpTo := *n - uint64(float64(*n)**bulk)

	c, err := kvclient.DialRetry(*addr, *dialTimeout)
	if err != nil {
		fmt.Fprintf(os.Stderr, "kvcheck: dial %s: %v\n", *addr, err)
		os.Exit(2)
	}
	defer c.Close()

	switch *mode {
	case "fill":
		for k := uint64(0); k < *n; k++ {
			class := kvserver.ClassInteractive
			if k >= syncedUpTo {
				class = kvserver.ClassBulk
			}
			if _, err := c.Put(class, k, valueFor(k)); err != nil {
				fmt.Fprintf(os.Stderr, "kvcheck: put %d: %v\n", k, err)
				os.Exit(2)
			}
		}
		fmt.Printf("kvcheck: filled %d keys (%d sync-acked, %d bulk)\n",
			*n, syncedUpTo, *n-syncedUpTo)
	case "verify":
		var broken, lostBulk, held uint64
		for k := uint64(0); k < *n; k++ {
			// v aliases this call's response frame; it is compared and
			// dropped before the next Get.
			v, ok, err := c.Get(kvserver.ClassInteractive, k)
			if err != nil {
				fmt.Fprintf(os.Stderr, "kvcheck: get %d: %v\n", k, err)
				os.Exit(2)
			}
			want := valueFor(k)
			switch {
			case ok && string(v) == string(want):
				held++
			case !ok && k >= syncedUpTo:
				// A lost bulk write is within contract: its ack never
				// promised durability.
				lostBulk++
			default:
				broken++
				if broken <= 10 {
					fmt.Fprintf(os.Stderr, "kvcheck: key %d: got %x,%v want %x\n", k, v, ok, want)
				}
			}
		}
		fmt.Printf("kvcheck: %d/%d keys held (%d bulk lost within contract, %d broken promises)\n",
			held, *n, lostBulk, broken)
		if broken > 0 {
			os.Exit(1)
		}
	}
}
