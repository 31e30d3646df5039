package simlock

import "repro/internal/amp"

// Env is the amp environment (locks.Env) the shipped locks' slow paths
// and the standby loop run in on virtual time: thread T's clock, its
// yield, its sleep, and its park and unpark, which keep an early wake
// as a permit.
type Env struct{ T *amp.Thread }

// SpinStepNs is the virtual cost of one spin step: one re-read of a
// contended cache line.
const SpinStepNs = 100

func (e Env) Now() int64       { return e.T.Now() }
func (e Env) Yield()           { e.T.Yield() }
func (e Env) Sleep(ns int64)   { e.T.SleepFor(ns) }
func (e Env) Attach(slot *Env) { *slot = e }
func (e Env) Park()            { e.T.Park() }
func (e Env) Unpark()          { amp.Unpark(e.T) }

// Spin charges SpinStepNs on the core, then yields it if another
// thread is waiting for it.
func (e Env) Spin(int) {
	e.T.Proc().Sleep(SpinStepNs)
	e.T.Yield()
}
