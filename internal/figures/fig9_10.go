package figures

import (
	"fmt"

	"repro/internal/harness"
	"repro/internal/prng"
	"repro/internal/stats"
)

// This file reproduces the database evaluation (Figs. 9 and 10) on the
// simulator. Each database is modelled by its lock topology from
// Table 1 and per-operation critical-section costs; these templates are
// the figures' one implementation, regenerating their shapes on an
// AMP-faithful substrate (TestDBComparisonShapes and TestDBCDFWellFormed
// assert them, `ampsim -fig <db>-cmp|-slos|-cdf` prints them).

// DBTemplate describes one database's locking behaviour per epoch
// (request): the number of distinct locks and a generator that draws
// one operation's lock sections.
type DBTemplate struct {
	Name     string
	NumLocks int
	// Ops draws one request's sections. Lock -1 = unlocked work.
	Ops func(rng prng.Source) []CSSpec
	// NCS is the inter-request gap in big-core ns.
	NCS int64
	// SLOs are the figure's comparison SLO settings (ns), smallest
	// first; the bar figure runs libasl at each plus 0 and MAX.
	SLOs []int64
	// SweepMax bounds the variant-SLOs sweep (ns).
	SweepMax int64
	// CDFSLO is the SLO of the published CDF plot (ns).
	CDFSLO int64
	// TASBigAffinity selects the TAS regime the paper observed for
	// this database (§4.2: little-affinity in SQLite and Kyoto's case,
	// big-affinity in upscaledb's).
	TASBigAffinity bool
}

// op builds a section list helper.
func secs(ss ...CSSpec) []CSSpec { return ss }

// KyotoTemplate models the Kyoto-Cabinet-like engine: a brief method
// lock (lock 0) then one of 16 slot locks (locks 1..16) for the
// operation; 50% put / 50% get with gets cheaper.
func KyotoTemplate() DBTemplate {
	return DBTemplate{
		Name:     "kyoto",
		NumLocks: 5,
		Ops: func(rng prng.Source) []CSSpec {
			// Kyoto divides its bucket array into a handful of
			// mutex-guarded regions; skewed keys keep them hot.
			slot := 1 + prng.Intn(rng, 4)
			if rng.Uint64()&1 == 0 { // put
				return secs(CSSpec{Lock: 0, Ns: 100}, CSSpec{Lock: slot, Ns: lines(30)})
			}
			return secs(CSSpec{Lock: 0, Ns: 100}, CSSpec{Lock: slot, Ns: lines(15)})
		},
		NCS:            400,
		SLOs:           []int64{40 * microsecond, 70 * microsecond},
		SweepMax:       200 * microsecond,
		CDFSLO:         70 * microsecond,
		TASBigAffinity: false, // the paper: TAS shows little-affinity in Kyoto
	}
}

// UpscaleTemplate models the upscaledb-like engine: pool lock (1)
// around cursor checkout, one big global lock (0) across the tree op,
// pool lock again.
func UpscaleTemplate() DBTemplate {
	return DBTemplate{
		Name:     "upscaledb",
		NumLocks: 2,
		Ops: func(rng prng.Source) []CSSpec {
			var op CSSpec
			if rng.Uint64()&1 == 0 { // put
				op = CSSpec{Lock: 0, Ns: lines(30)}
			} else {
				op = CSSpec{Lock: 0, Ns: lines(15)}
			}
			return secs(CSSpec{Lock: 1, Ns: 50}, op, CSSpec{Lock: 1, Ns: 50})
		},
		NCS:            1200,
		SLOs:           []int64{100 * microsecond, 180 * microsecond},
		SweepMax:       400 * microsecond,
		CDFSLO:         140 * microsecond,
		TASBigAffinity: true, // the paper: TAS shows big-affinity in upscaledb
	}
}

// LMDBTemplate models the LMDB-like engine: writes hold the writer
// lock (0); reads take the metadata lock (1) briefly, read the
// snapshot without locks, then deregister under the metadata lock.
func LMDBTemplate() DBTemplate {
	return DBTemplate{
		Name:     "lmdb",
		NumLocks: 2,
		Ops: func(rng prng.Source) []CSSpec {
			if rng.Uint64()&1 == 0 { // put: COW insert path copy
				return secs(CSSpec{Lock: 0, Ns: lines(40)})
			}
			return secs(
				CSSpec{Lock: 1, Ns: 100},
				CSSpec{Lock: -1, Ns: lines(8)}, // lock-free MVCC read
				CSSpec{Lock: 1, Ns: 60},
			)
		},
		NCS:            1500,
		SLOs:           []int64{400 * microsecond, 600 * microsecond},
		SweepMax:       2000 * microsecond,
		CDFSLO:         1900 * microsecond,
		TASBigAffinity: true,
	}
}

// LevelDBTemplate models the LevelDB-like randomread: the global
// metadata lock (0) to ref a version, a lock-free read, the lock again
// to unref.
func LevelDBTemplate() DBTemplate {
	return DBTemplate{
		Name:     "leveldb",
		NumLocks: 1,
		Ops: func(rng prng.Source) []CSSpec {
			return secs(
				CSSpec{Lock: 0, Ns: lines(5)},
				CSSpec{Lock: -1, Ns: lines(9)},
				CSSpec{Lock: 0, Ns: lines(2)},
			)
		},
		NCS:            900,
		SLOs:           []int64{15 * microsecond, 30 * microsecond},
		SweepMax:       100 * microsecond,
		CDFSLO:         100 * microsecond,
		TASBigAffinity: true,
	}
}

// SQLiteTemplate models the SQLite-like engine: a brief metadata lock
// (1), then the state-machine lock (0) across the transaction. One in
// 1000 requests is an extremely long full-table scan.
func SQLiteTemplate() DBTemplate {
	count := 0
	return DBTemplate{
		Name:     "sqlite",
		NumLocks: 2,
		Ops: func(rng prng.Source) []CSSpec {
			count++
			if count%1000 == 0 { // occasional full scan of a 100k table
				return secs(CSSpec{Lock: 1, Ns: 40}, CSSpec{Lock: 0, Ns: lines(2000)})
			}
			switch prng.Intn(rng, 3) {
			case 0: // insert: SHARED→RESERVED→EXCLUSIVE escalation
				return secs(CSSpec{Lock: 1, Ns: 40}, CSSpec{Lock: 0, Ns: lines(45)})
			case 1: // simple point select
				return secs(CSSpec{Lock: 1, Ns: 40}, CSSpec{Lock: 0, Ns: lines(10)})
			default: // complex range select with non-indexed filter
				return secs(CSSpec{Lock: 1, Ns: 40}, CSSpec{Lock: 0, Ns: lines(25)})
			}
		},
		NCS:            1500,
		SLOs:           []int64{2 * millisecond, 4 * millisecond},
		SweepMax:       10 * millisecond,
		CDFSLO:         4 * millisecond,
		TASBigAffinity: false, // the paper: TAS little-affinity in SQLite
	}
}

// DBConfig builds the simulator run config for a template.
func DBConfig(t DBTemplate, kind LockKind, slo int64, seed uint64) MicroConfig {
	return MicroConfig{
		Machine:  m1(),
		Threads:  8,
		Kind:     kind,
		NumLocks: t.NumLocks,
		EpochOps: func(now int64, rng prng.Source) []CSSpec { return t.Ops(rng) },
		NCS:      t.NCS,
		SLO:      slo,
		Duration: defaultDuration,
		Warmup:   defaultWarmup,
		Seed:     seed,
	}
}

// DBComparison reproduces the bar-comparison figure (9a/9d/9g/10a/10d)
// for one database template.
func DBComparison(t DBTemplate) *harness.Figure {
	f := &harness.Figure{ID: t.Name + "-cmp", Title: t.Name + ": lock comparison"}
	for _, row := range dbComparisonRows(t) {
		f.Rows = append(f.Rows, RunMicro(row.cfg).Summary(row.name))
	}
	return f
}

// dbRow is one row of a lock comparison: its name and its run.
type dbRow struct {
	name string
	cfg  MicroConfig
}

// dbComparisonRows are the rows of t's lock comparison, in figure order.
func dbComparisonRows(t DBTemplate) []dbRow {
	tas := DBConfig(t, KindTAS, -1, 91)
	tas.TASAff = littleAffinity
	if t.TASBigAffinity {
		tas.TASAff = bigAffinity
	}
	shfl := DBConfig(t, KindSHFLPB, -1, 91)
	shfl.PBn = 10
	rows := []dbRow{
		{"pthread", DBConfig(t, KindPthread, -1, 91)},
		{"tas", tas},
		{"ticket", DBConfig(t, KindTicket, -1, 91)},
		{"shfl-pb10", shfl},
		{"mcs", DBConfig(t, KindMCS, -1, 91)},
		{"libasl-0", DBConfig(t, KindASL, 0, 91)},
	}
	for _, slo := range t.SLOs {
		rows = append(rows, dbRow{fmt.Sprintf("libasl-%dus", slo/microsecond), DBConfig(t, KindASL, slo, 91)})
	}
	return append(rows, dbRow{"libasl-max", DBConfig(t, KindASL, -1, 91)})
}

// DBSLOSweep reproduces the variant-SLOs figure (9b/9e/9h/10b/10e):
// 11 SLOs from 0 to the template's SweepMax.
func DBSLOSweep(t DBTemplate) *harness.Figure {
	db := func(slo int64) MicroConfig { return DBConfig(t, KindASL, slo, 91) }
	return SLOSweep(t.Name+"-slos", t.Name+": variant SLOs", db, 0, t.SweepMax, 11)
}

// DBCDF reproduces the latency-CDF figure (9c/9f/9i/10c/10f) at the
// template's published SLO.
func DBCDF(t DBTemplate) *harness.Figure { return DBCDFScaled(t, 1) }

// DBCDFScaled is DBCDF with the virtual duration divided by scale
// (-short smoke path): the simulator's virtual time keeps the reduced
// run deterministic too.
func DBCDFScaled(t DBTemplate, scale int64) *harness.Figure {
	if scale < 1 {
		scale = 1
	}
	cfg := DBConfig(t, KindASL, t.CDFSLO, 91)
	cfg.Duration /= scale
	cfg.Warmup /= scale
	r := RunMicro(cfg)
	return harness.CDFFigure(t.Name+"-cdf", t.Name+": latency CDF under LibASL",
		t.CDFSLO, r.Epochs.Overall(), r.Epochs.ByClass(stats.Little), 64)
}

// AllDBTemplates enumerates the five databases of Table 1.
func AllDBTemplates() []DBTemplate {
	return []DBTemplate{
		KyotoTemplate(),
		UpscaleTemplate(),
		LMDBTemplate(),
		LevelDBTemplate(),
		SQLiteTemplate(),
	}
}
