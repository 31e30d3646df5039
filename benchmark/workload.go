package main

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"strings"
)

// Class indices used throughout the benchmark: they match the wire class
// bytes (kvserver.ClassInteractive = 0, ClassBulk = 1) and core.Big/Little.
const (
	interactive = 0
	bulk        = 1
)

var classNames = [2]string{"interactive", "bulk"}

// maxBatch bounds the keys of one generated MultiGet/MultiPut.
const maxBatch = 16

type opKind uint8

const (
	opGet opKind = iota
	opPut
	opMultiGet
	opMultiPut
	opRange
	numOpKinds
)

var opNames = [numOpKinds]string{"get", "put", "multiget", "multiput", "range"}

// mix is one class's operation shares in percent (they sum to 100).
type mix [numOpKinds]int

// workload is one traffic mix plus the served configuration it runs on.
// Everything not listed is the cmd/kvserver flag default.
type workload struct {
	name string
	why  string

	engine   string // shardedkv.AllEngines name
	shards   int
	pipeline bool
	durable  bool

	keys  uint64 // keyspace size, a power of two; every key is preloaded
	vsize int    // value bytes, stamp included
	zipf  bool   // zipfian θ=0.99 key choice (uniform otherwise)
	batch int    // keys per MultiGet/MultiPut
	span  uint64 // Range covers [lo, lo+span]
	mixes [2]mix // by class
}

// The four workloads. Each names the layers that do its work, so that a
// change to one layer has a workload that exercises it and one that does
// not (benchmark/README.md carries the interaction table).
var workloads = []workload{
	{
		name:   "wire-point",
		why:    "64 B point ops on the default server: socket, proto codec and kvclient matcher do the work, lock and engine take about 1 us",
		engine: "hashkv", shards: 16,
		keys: 1 << 18, vsize: 64, zipf: true,
		mixes: [2]mix{{opGet: 50, opPut: 50}, {opGet: 50, opPut: 50}},
	},
	{
		name:   "scan-mixed",
		why:    "btree, 2 shards: bulk 513-key scans and 16-key batches beside interactive points; a scan spends ~23 us in the engine under two shard locks, and lock wait is ~12 of the ~155 us interactive p99",
		engine: "btree", shards: 2,
		keys: 1 << 18, vsize: 64, batch: 16, span: 512,
		mixes: [2]mix{{opGet: 50, opPut: 50}, {opRange: 90, opMultiPut: 10}},
	},
	{
		name:   "durable-write",
		why:    "100 % puts through pipeline + WAL on a modelled 200 us flush: group commit and the combiner set interactive latency",
		engine: "hashkv", shards: 4, pipeline: true, durable: true,
		keys: 1 << 18, vsize: 64, zipf: true,
		mixes: [2]mix{{opPut: 100}, {opPut: 100}},
	},
	{
		name:   "batch-large",
		why:    "16-key batches of 4 KiB values through the pipeline: value copies, batch-by-shard locking and the ring carry the cost",
		engine: "hashkv", shards: 16, pipeline: true,
		keys: 1 << 14, vsize: 4096, batch: 16,
		mixes: [2]mix{{opMultiGet: 50, opMultiPut: 50}, {opMultiGet: 50, opMultiPut: 50}},
	},
}

func workloadByName(name string) (*workload, error) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return nil, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(names, ", "))
}

// splitMix64 is the Steele/Lea/Flood generator. The benchmark carries its
// own copy so the op stream cannot change when the program's does.
type splitMix64 struct{ state uint64 }

func (s *splitMix64) next() uint64 {
	s.state += 0x9e3779b97f4a7c15
	z := s.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// float returns a uniform value in [0, 1).
func (s *splitMix64) float() float64 { return float64(s.next()>>11) / (1 << 53) }

// zipfian draws ranks in [0, n) with P(rank r) ∝ 1/(r+1)^θ, by the
// Gray et al. method YCSB uses. The zeta sum is computed once per (n, θ).
type zipfian struct {
	n                float64
	theta, alpha     float64
	zetan, eta, half float64
}

func newZipfian(n uint64, theta float64) *zipfian {
	zeta := func(m uint64) float64 {
		var s float64
		for i := uint64(1); i <= m; i++ {
			s += 1 / math.Pow(float64(i), theta)
		}
		return s
	}
	zetan := zeta(n)
	return &zipfian{
		n: float64(n), theta: theta, alpha: 1 / (1 - theta),
		zetan: zetan,
		eta:   (1 - math.Pow(2/float64(n), 1-theta)) / (1 - zeta(2)/zetan),
		half:  1 + math.Pow(0.5, theta),
	}
}

func (z *zipfian) rank(u float64) uint64 {
	uz := u * z.zetan
	if uz < 1 {
		return 0
	}
	if uz < z.half {
		return 1
	}
	return uint64(z.n * math.Pow(z.eta*u-z.eta+1, z.alpha))
}

// op is one generated request. keys aliases the generator's buffer and is
// valid until the next call to next.
type op struct {
	kind opKind
	key  uint64   // Get, Put; Range lower bound
	hi   uint64   // Range upper bound
	keys []uint64 // MultiGet, MultiPut
}

// opGen produces one client's op stream from (seed, class): the program
// sees only what it generates.
type opGen struct {
	wl    *workload
	class int
	rng   splitMix64
	zipf  *zipfian
	buf   [maxBatch]uint64
}

func newOpGen(wl *workload, class int, seed uint64, z *zipfian) *opGen {
	// Distinct streams per class from one seed: jump the state by a
	// class-dependent odd constant.
	g := &opGen{wl: wl, class: class, zipf: z}
	g.rng.state = seed*0x9e3779b97f4a7c15 + uint64(class+1)*0xd1b54a32d192ed03
	return g
}

// anyKey draws a key under the workload's distribution. Zipf ranks are
// scrambled by an odd multiplier (a bijection modulo a power of two) so
// the hot keys spread over the shards.
func (g *opGen) anyKey() uint64 {
	if g.wl.zipf {
		return (g.zipf.rank(g.rng.float()) * 0x9e3779b1) & (g.wl.keys - 1)
	}
	return g.rng.next() & (g.wl.keys - 1)
}

// ownKey draws a key this class may write: interactive owns the even
// keys, bulk the odd ones, so every key has exactly one writer and a
// per-key last-acked sequence is well defined.
func (g *opGen) ownKey() uint64 {
	return g.anyKey()&^1 | uint64(g.class)
}

// distinct fills the batch buffer with distinct keys, writable ones when
// own is set (the pipeline applies duplicate keys of one MultiPut in no
// fixed order, so a batch never repeats a key).
func (g *opGen) distinct(own bool) []uint64 {
	draw := func() uint64 {
		if own {
			return g.ownKey()
		}
		return g.anyKey()
	}
	keys := g.buf[:g.wl.batch]
	for i := range keys {
		k := draw()
		for slices.Contains(keys[:i], k) {
			k = draw()
		}
		keys[i] = k
	}
	return keys
}

func (g *opGen) next(o *op) {
	m := &g.wl.mixes[g.class]
	r := int(g.rng.next() % 100)
	kind := opGet
	for k, share := range m {
		if r < share {
			kind = opKind(k)
			break
		}
		r -= share
	}
	o.kind, o.keys = kind, nil
	switch kind {
	case opGet:
		o.key = g.anyKey()
	case opPut:
		o.key = g.ownKey()
	case opMultiGet:
		o.keys = g.distinct(false)
	case opMultiPut:
		o.keys = g.distinct(true)
	case opRange:
		// Every key exists, so [lo, lo+span] inside the keyspace must
		// come back with exactly span+1 pairs.
		o.key = g.rng.next() % (g.wl.keys - g.wl.span)
		o.hi = o.key + g.wl.span
	}
}

// Values carry a stamp the output checks read back: the key they were
// written under and the writer's sequence number. The rest is filler.
const stampLen = 16

func newValue(size int) []byte {
	v := make([]byte, size)
	for i := stampLen; i < size; i++ {
		v[i] = 0xa5
	}
	return v
}

func stamp(v []byte, key, seq uint64) {
	binary.LittleEndian.PutUint64(v[0:8], key)
	binary.LittleEndian.PutUint64(v[8:16], seq)
}

func readStamp(v []byte) (key, seq uint64) {
	return binary.LittleEndian.Uint64(v[0:8]), binary.LittleEndian.Uint64(v[8:16])
}
