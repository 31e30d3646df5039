//go:build race

package locks

// raceEnabled scales the fixed-work oversubscription test down: the race
// detector slows every acquisition several times over.
const raceEnabled = true
