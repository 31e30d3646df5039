//go:build !race

package locks

const raceEnabled = false
