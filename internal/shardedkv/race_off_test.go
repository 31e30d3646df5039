//go:build !race

package shardedkv

const raceEnabled = false
