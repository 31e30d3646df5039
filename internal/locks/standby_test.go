package locks

import (
	"slices"
	"testing"

	"repro/internal/core"
)

// fakeEnv is an Env on a manual clock: Yield advances it by one
// microsecond, Sleep by exactly the slice asked for, and the lock reads
// free from freeAt on. It records every slice and counts the free
// reads made once the lock is free. A standby that has not returned
// after runaway yields and sleeps finds the clock at the end of time.
type fakeEnv struct {
	now, freeAt int64
	yields      int
	sleeps      []int64
	freeReads   int
}

const runaway = 10_000

func (f *fakeEnv) pass(ns int64) {
	f.now += ns
	if f.yields+len(f.sleeps) > runaway {
		f.now = 1 << 62
	}
}

func (f *fakeEnv) Now() int64 { return f.now }
func (f *fakeEnv) IsFree() bool {
	if f.now >= f.freeAt {
		f.freeReads++
		return true
	}
	return false
}
func (f *fakeEnv) Yield() { f.yields++; f.pass(1_000) }
func (f *fakeEnv) Sleep(ns int64) {
	f.sleeps = append(f.sleeps, ns)
	f.pass(ns)
}

// The standby loop neither spins nor parks.
func (f *fakeEnv) Spin(int)         { panic("standby spun") }
func (f *fakeEnv) Attach(**fakeEnv) { panic("standby parked") }
func (f *fakeEnv) Park()            { panic("standby parked") }
func (f *fakeEnv) Unpark()          { panic("standby parked") }

// TestStandbyServedSchedule pins the served flavour's schedule on a
// fake clock: it yields until 20 µs, then sleeps in slices doubling
// from 10 µs up to 1 ms, never past the window's end, and returns on
// the first free read.
func TestStandbyServedSchedule(t *testing.T) {
	const us = int64(1_000)
	never := int64(1) << 62
	for _, tc := range []struct {
		name           string
		window, freeAt int64
		yields         int
		sleeps         []int64 // in µs
		end            int64
	}{
		{"held past the window", 5_000 * us, never, 20,
			[]int64{10, 20, 40, 80, 160, 320, 640, 1000, 1000, 1000, 710}, 5_000 * us},
		{"window inside the spin", 5 * us, never, 5, nil, 5 * us},
		{"freed while spinning", 5_000 * us, 7 * us, 7, nil, 7 * us},
		{"freed while sleeping", 5_000 * us, 100 * us, 20,
			[]int64{10, 20, 40, 80}, 170 * us},
		{"window capped", 1 << 50, never, 20, nil, core.DefaultMaxWindow},
	} {
		t.Run(tc.name, func(t *testing.T) {
			f := &fakeEnv{freeAt: tc.freeAt}
			Standby(f, f, StandbyServed, tc.window)
			if f.yields != tc.yields {
				t.Errorf("yields = %d, want %d (one per µs until 20 µs)", f.yields, tc.yields)
			}
			if tc.sleeps != nil {
				want := make([]int64, len(tc.sleeps))
				for i, d := range tc.sleeps {
					want[i] = d * us
				}
				if !slices.Equal(f.sleeps, want) {
					t.Errorf("sleeps = %v, want %v", f.sleeps, want)
				}
			}
			for _, d := range f.sleeps {
				if d > 1_000*us {
					t.Errorf("slept %d ns at once, past the 1 ms cap", d)
				}
			}
			if f.now != tc.end {
				t.Errorf("returned at %d ns, want %d", f.now, tc.end)
			}
			if tc.freeAt != never && f.freeReads != 1 {
				t.Errorf("%d free reads, want a return on the first", f.freeReads)
			}
		})
	}
}

// TestStandbyPaperSchedules pins the two flavours the figures run: no
// yielding poll, and checks doubling from 50 ns (spinning) or 50 µs
// (sleeping) with no cap but the window's end.
func TestStandbyPaperSchedules(t *testing.T) {
	for _, tc := range []struct {
		f      StandbyFlavour
		window int64
		sleeps []int64
	}{
		{StandbySpin, 1_000, []int64{50, 100, 200, 400, 250}},
		{StandbySleep, 2_000_000, []int64{50_000, 100_000, 200_000, 400_000, 800_000, 450_000}},
	} {
		f := &fakeEnv{freeAt: 1 << 62}
		Standby(f, f, tc.f, tc.window)
		if f.yields != 0 || !slices.Equal(f.sleeps, tc.sleeps) || f.now != tc.window {
			t.Errorf("flavour %d: %d yields, sleeps %v, returned at %d; want 0, %v, %d",
				tc.f, f.yields, f.sleeps, f.now, tc.sleeps, tc.window)
		}
	}
}
