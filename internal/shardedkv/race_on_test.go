//go:build race

package shardedkv

// raceEnabled gates the allocation-count assertions: the race detector
// instruments allocations, so the counts differ under it.
const raceEnabled = true
