//go:build !race

package kvclient

const raceEnabled = false
