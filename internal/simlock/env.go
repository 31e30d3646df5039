package simlock

import "repro/internal/amp"

// Env is the amp environment (locks.Env) the shipped locks run in on
// virtual time: thread T's clock, its yield, its sleep, and its park and
// unpark, which keep an early wake as a permit.
type Env struct{ T *amp.Thread }

// SpinStepNs is the virtual cost of one spin step: one re-read of a
// contended cache line.
const SpinStepNs = 100

func (e Env) Now() int64       { return e.T.Now() }
func (e Env) Sleep(ns int64)   { e.T.SleepFor(ns) }
func (e Env) Attach(slot *Env) { *slot = e }
func (e Env) Park()            { e.T.Park() }
func (e Env) Unpark()          { amp.Unpark(e.T) }

// Yield charges SpinStepNs on the core, then gives it up if another
// thread is waiting for it. amp's Yield alone returns at once on a core
// with nothing else to run, and a poll of yields would never see the
// clock move.
func (e Env) Yield() {
	e.T.Proc().Sleep(SpinStepNs)
	e.T.Yield()
}

// Spin is one Yield: a spin step and a yield cost the same re-read.
func (e Env) Spin(int) { e.Yield() }
