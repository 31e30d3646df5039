// Command kvsoak is the minutes-long chaos/soak harness for the
// kvserver stack: it boots a real kvserver binary, hammers it with
// mixed-SLO-class traffic through retrying clients, and keeps breaking
// things underneath — kill -9 and restart on a seeded schedule,
// injected WAL fsync faults (degraded-mode incarnations), injected
// client-connection faults, and a protocol fuzzer spraying garbage
// frames — while checking every read against a wire-level
// single-writer-per-key model.
//
// The model: each worker owns a contiguous key block and is its only
// writer, so valid read values are exactly predictable. Values encode
// (key, version); per key the worker tracks
//
//   - issuedMax: the highest version ever attempted,
//   - dfloor:    the durability floor — the highest version whose
//     durability the server PROMISED (an interactive ack is promised at
//     group commit; a bulk ack is promised by the next successful
//     Flush),
//   - zombies:   versions whose outcome is indeterminate (the op
//     failed, or retried internally, so a duplicate frame may still
//     apply arbitrarily late).
//
// Every read must then decode to a version v with dfloor <= v <=
// issuedMax, or to a zombie version; a key with dfloor > 0 may never
// read absent. Anything else is a violation: a lost sync-acked write,
// a resurrected value, or cross-key corruption. kvsoak exits non-zero
// on any violation and prints a summary either way.
//
// Usage:
//
//	kvsoak -server ./kvserver -dur 60s -seed 1
package main

import (
	"bufio"
	"flag"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/fault"
	"repro/internal/kvclient"
	"repro/internal/kvmodel"
	"repro/internal/kvserver"
	"repro/internal/prng"
)

func main() {
	server := flag.String("server", "", "path to the kvserver binary (required)")
	dur := flag.Duration("dur", 60*time.Second, "chaos phase duration")
	seed := flag.Uint64("seed", 1, "seed for the kill schedule, fault specs, and workloads")
	workers := flag.Int("workers", 8, "concurrent client workers (even=interactive, odd=bulk)")
	keysPer := flag.Int("keys", 128, "modeled keys per worker")
	verbose := flag.Bool("v", false, "log every chaos event")
	flag.Parse()
	if *server == "" {
		fmt.Fprintln(os.Stderr, "kvsoak: -server is required")
		os.Exit(2)
	}
	h := newHarness(*server, *seed, *workers, *keysPer, *verbose)
	if ok := h.run(*dur); !ok {
		os.Exit(1)
	}
}

// violation is one model breach, recorded with enough context to chase.
type violation struct {
	when time.Time
	what string
}

type harness struct {
	bin     string
	seed    uint64
	workers int
	keysPer int
	verbose bool

	addr   string
	walDir string
	logDir string

	rng *prng.SplitMix64 // chaos schedule; main goroutine only

	mu         sync.Mutex
	violations []violation

	ops      atomic.Uint64 // completed (acked) operations
	failed   atomic.Uint64 // operations that exhausted retries
	restarts atomic.Uint64

	proc     *exec.Cmd
	procLog  *os.File
	procIncr int
}

func newHarness(bin string, seed uint64, workers, keysPer int, verbose bool) *harness {
	tmp, err := os.MkdirTemp("", "kvsoak-")
	if err != nil {
		fatalf("tmp dir: %v", err)
	}
	return &harness{
		bin: bin, seed: seed, workers: workers, keysPer: keysPer, verbose: verbose,
		walDir: filepath.Join(tmp, "wal"), logDir: tmp,
		rng: prng.NewSplitMix64(seed),
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "kvsoak: "+format+"\n", args...)
	os.Exit(1)
}

func (h *harness) logf(format string, args ...any) {
	if h.verbose {
		fmt.Fprintf(os.Stderr, "kvsoak: "+format+"\n", args...)
	}
}

func (h *harness) report(format string, args ...any) {
	h.mu.Lock()
	h.violations = append(h.violations, violation{when: time.Now(), what: fmt.Sprintf(format, args...)})
	n := len(h.violations)
	h.mu.Unlock()
	if n <= 20 {
		fmt.Fprintf(os.Stderr, "kvsoak: VIOLATION: "+format+"\n", args...)
	}
}

// pickAddr reserves a listen address once; every server incarnation
// reuses it so clients reconnect to the same place across kill -9s.
func (h *harness) pickAddr() {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		fatalf("pick addr: %v", err)
	}
	h.addr = ln.Addr().String()
	ln.Close()
}

// startServer launches one incarnation. faults, when non-empty, is
// passed through to the server's -faults flag (seeded fault
// injection in its WAL stack). Blocks until the server reports
// "serving ... on <addr>" on stderr or a timeout.
func (h *harness) startServer(faults string) {
	h.procIncr++
	logPath := filepath.Join(h.logDir, fmt.Sprintf("server-%02d.log", h.procIncr))
	lf, err := os.Create(logPath)
	if err != nil {
		fatalf("server log: %v", err)
	}
	args := []string{
		"-addr", h.addr,
		"-wal", h.walDir,
		"-shards", "4",
	}
	if faults != "" {
		args = append(args, "-faults", faults, "-fault-seed", fmt.Sprint(h.rng.Uint64()|1))
	}
	cmd := exec.Command(h.bin, args...)
	stderr, err := cmd.StderrPipe()
	if err != nil {
		fatalf("stderr pipe: %v", err)
	}
	if err := cmd.Start(); err != nil {
		fatalf("start server: %v", err)
	}
	ready := make(chan struct{})
	go func() {
		sc := bufio.NewScanner(stderr)
		signaled := false
		for sc.Scan() {
			line := sc.Text()
			fmt.Fprintln(lf, line)
			if !signaled && strings.Contains(line, "serving") && strings.Contains(line, h.addr) {
				signaled = true
				close(ready)
			}
		}
		lf.Close()
	}()
	select {
	case <-ready:
	case <-time.After(15 * time.Second):
		fatalf("server incarnation %d never became ready; log: %s", h.procIncr, logPath)
	}
	h.proc, h.procLog = cmd, lf
	h.logf("incarnation %d up (faults=%q)", h.procIncr, faults)
}

// kill9 SIGKILLs the current incarnation and reaps it — the crash the
// WAL's group commit is supposed to survive.
func (h *harness) kill9() {
	h.proc.Process.Kill()
	h.proc.Wait()
	h.restarts.Add(1)
	h.logf("incarnation %d killed (-9)", h.procIncr)
}

// shutdown asks the current incarnation to exit cleanly (SIGTERM,
// which syncs and closes every shard log).
func (h *harness) shutdown() {
	h.proc.Process.Signal(syscall.SIGTERM)
	h.proc.Wait()
	h.logf("incarnation %d shut down cleanly", h.procIncr)
}

// keyState is the single-writer model for one key (see package doc).
type keyState struct {
	issuedMax uint64
	dfloor    uint64
	bulkAcked uint64          // highest bulk-acked version awaiting a Flush promise
	bulkGen   uint64          // connection generation bulkAcked rode on
	zombies   map[uint64]bool // indeterminate versions; nil until first use
}

func (ks *keyState) zombie(v uint64) {
	if ks.zombies == nil {
		ks.zombies = map[uint64]bool{}
	}
	ks.zombies[v] = true
}

// valid reports whether reading version v (present=true) or absence
// (present=false) is allowed.
func (ks *keyState) valid(v uint64, present bool) bool {
	if !present {
		return ks.dfloor == 0
	}
	if v >= ks.dfloor && v <= ks.issuedMax {
		return true
	}
	return ks.zombies[v]
}

// worker drives one client against its own key block until stop
// closes, checking every read. wi's parity picks the SLO class.
func (h *harness) worker(wi int, stop <-chan struct{}, done *sync.WaitGroup, states []*keyState) {
	defer done.Done()
	class := uint8(kvserver.ClassInteractive)
	if wi%2 == 1 {
		class = kvserver.ClassBulk
	}
	connReg := fault.New(h.seed + uint64(wi)*1000 + 7)
	if wi%4 == 3 {
		// A quarter of the fleet reads and writes through a faulty NIC:
		// rare injected connection errors exercise the reconnect path
		// even between server kills.
		connReg.MustAdd(fault.Rule{Point: "conn.read", Prob: 0.002, Act: fault.ActError})
		connReg.MustAdd(fault.Rule{Point: "conn.write", Prob: 0.002, Act: fault.ActError})
	}
	cl := kvclient.NewRetrying(h.addr, kvclient.RetryConfig{
		MaxAttempts:    6,
		RequestTimeout: 2 * time.Second,
		DialTimeout:    3 * time.Second,
		Seed:           h.seed + uint64(wi),
		WrapConn:       func(c net.Conn) net.Conn { return fault.WrapConn(c, connReg) },
	})
	defer cl.Close()
	rng := prng.NewSplitMix64(h.seed*0x9e3779b97f4a7c15 + uint64(wi))
	base := uint64(wi * h.keysPer)
	key := func(j int) uint64 { return base + uint64(j) }

	// checkRead decodes v on the spot: v aliases its call's response
	// frame, and neither it nor a slice of it outlives this function.
	checkRead := func(k uint64, v []byte, present bool, via string) {
		ks := states[k-base]
		if !present {
			if !ks.valid(0, false) {
				h.report("worker %d: %s(%d) absent but durability floor is v%d", wi, via, k, ks.dfloor)
			}
			return
		}
		ver, ok := kvmodel.DecodeVerValue(k, v)
		if !ok {
			h.report("worker %d: %s(%d) returned foreign bytes %x", wi, via, k, v)
			return
		}
		if !ks.valid(ver, true) {
			h.report("worker %d: %s(%d) = v%d, want v in [%d..%d] or a zombie (lost sync-acked write)",
				wi, via, k, ver, ks.dfloor, ks.issuedMax)
		}
	}

	for {
		select {
		case <-stop:
			return
		default:
		}
		j := int(rng.Uint64()) % h.keysPer
		if j < 0 {
			j += h.keysPer
		}
		k := key(j)
		ks := states[j]
		switch rng.Uint64() % 10 {
		case 0, 1, 2, 3, 4: // write
			ks.issuedMax++
			v := ks.issuedMax
			_, err := cl.Put(class, k, kvmodel.VerValue(k, v))
			attempts := cl.Attempts()
			if err != nil {
				ks.zombie(v)
				h.failed.Add(1)
				continue
			}
			if attempts > 1 {
				// Acked, but an earlier attempt's frame may still be
				// buffered server-side and re-apply v after v+1 lands.
				ks.zombie(v)
			}
			if class == kvserver.ClassInteractive {
				ks.dfloor = v // sync-waited: durable at ack
			} else if v > ks.bulkAcked {
				// Durable at the next successful Flush on the SAME
				// connection generation: a Flush acked by a later
				// incarnation never saw this write.
				ks.bulkAcked, ks.bulkGen = v, cl.LastGen()
			}
			h.ops.Add(1)
		case 5, 6, 7: // read
			v, found, err := cl.Get(class, k)
			if err != nil {
				h.failed.Add(1)
				continue
			}
			checkRead(k, v, found, "Get")
			h.ops.Add(1)
		case 8: // batched read over a few owned keys
			n := int(rng.Uint64()%4) + 2
			keys := make([]uint64, n)
			for i := range keys {
				keys[i] = key(int(rng.Uint64() % uint64(h.keysPer)))
			}
			vals, found, err := cl.MultiGet(class, keys)
			if err != nil {
				h.failed.Add(1)
				continue
			}
			for i, kk := range keys {
				checkRead(kk, vals[i], found[i], "MultiGet")
			}
			h.ops.Add(1)
		default: // flush: the bulk durability barrier
			// Snapshot what each key had bulk-acked BEFORE issuing: the
			// barrier only promises writes applied before it ran.
			type snap struct{ ver, gen uint64 }
			snaps := make([]snap, h.keysPer)
			for i, s := range states {
				snaps[i] = snap{s.bulkAcked, s.bulkGen}
			}
			if err := cl.Flush(class); err != nil {
				h.failed.Add(1)
				continue
			}
			// Promote only writes acked on the connection generation the
			// Flush itself completed on: same generation = same server
			// process and same FIFO connection, so the barrier provably
			// covers the ack. An ack from an older generation died with
			// its incarnation and gets no promise here.
			fgen := cl.LastGen()
			for i, s := range states {
				if snaps[i].gen == fgen && snaps[i].ver > s.dfloor {
					s.dfloor = snaps[i].ver
				}
			}
			h.ops.Add(1)
		}
	}
}

// fuzz sprays protocol garbage at the server: correct magic followed
// by hostile frames, and no magic at all. The server must drop the
// connection every time and never wedge or crash.
func (h *harness) fuzz(stop <-chan struct{}, done *sync.WaitGroup) {
	defer done.Done()
	rng := prng.NewSplitMix64(h.seed ^ 0xf022)
	for {
		select {
		case <-stop:
			return
		case <-time.After(150 * time.Millisecond):
		}
		conn, err := net.DialTimeout("tcp", h.addr, time.Second)
		if err != nil {
			continue // server mid-restart
		}
		if rng.Uint64()%2 == 0 {
			conn.Write([]byte(kvserver.Magic))
		}
		junk := make([]byte, int(rng.Uint64()%512)+4)
		for i := range junk {
			junk[i] = byte(rng.Uint64())
		}
		conn.Write(junk)
		conn.SetReadDeadline(time.Now().Add(time.Second))
		var buf [256]byte
		conn.Read(buf[:]) // drain whatever error frame comes back
		conn.Close()
	}
}

// run executes the chaos phase for dur, then a clean-restart final
// sweep. Returns true when the model held end to end.
func (h *harness) run(dur time.Duration) bool {
	h.pickAddr()
	states := make([][]*keyState, h.workers)
	for wi := range states {
		states[wi] = make([]*keyState, h.keysPer)
		for j := range states[wi] {
			states[wi][j] = &keyState{}
		}
	}

	h.startServer("")
	stop := make(chan struct{})
	var done sync.WaitGroup
	for wi := 0; wi < h.workers; wi++ {
		done.Add(1)
		go h.worker(wi, stop, &done, states[wi])
	}
	done.Add(1)
	go h.fuzz(stop, &done)

	// Chaos loop: let one incarnation serve for a seeded 5–15s, kill it
	// -9, restart — alternating clean incarnations with ones whose WAL
	// fsync is rigged to start failing mid-run (degraded mode).
	deadline := time.Now().Add(dur)
	for time.Now().Before(deadline) {
		serve := 5*time.Second + time.Duration(h.rng.Uint64()%uint64(10*time.Second))
		if rem := time.Until(deadline); serve > rem {
			serve = rem
		}
		if serve > 0 {
			time.Sleep(serve)
		}
		if time.Now().Before(deadline) {
			h.kill9()
			faults := ""
			if h.procIncr%2 == 1 {
				// Every other incarnation loses an fsync partway in and
				// must flip the hit shards to degraded-mode serving.
				faults = fmt.Sprintf("wal.fsync:nth=%d:error", 40+h.rng.Uint64()%160)
			}
			h.startServer(faults)
		}
	}

	// Stop the traffic, then give the final incarnation a clean life:
	// kill the (possibly degraded) current one, restart fault-free, and
	// sweep every modeled key against the durability floor.
	close(stop)
	done.Wait()
	h.kill9()
	h.startServer("")
	h.finalSweep(states)
	h.shutdown()

	ops, failed, restarts := h.ops.Load(), h.failed.Load(), h.restarts.Load()
	h.mu.Lock()
	nviol := len(h.violations)
	h.mu.Unlock()
	fmt.Printf("kvsoak: %d ops acked, %d ops exhausted retries, %d kill -9 restarts, %d violations (seed %d)\n",
		ops, failed, restarts, nviol, h.seed)
	if nviol > 0 {
		fmt.Printf("kvsoak: FAILED — server logs in %s\n", h.logDir)
		return false
	}
	if ops < uint64(h.workers*20) {
		fmt.Printf("kvsoak: FAILED — only %d ops acked; the server wedged or clients never connected (logs in %s)\n",
			ops, h.logDir)
		return false
	}
	os.RemoveAll(h.logDir)
	fmt.Println("kvsoak: PASS — no sync-acked write lost, no model violation")
	return true
}

// finalSweep reads every modeled key through a fresh, fault-free
// client against the recovered server: the replayed store must honor
// every durability promise made across every incarnation.
func (h *harness) finalSweep(states [][]*keyState) {
	cl := kvclient.NewRetrying(h.addr, kvclient.RetryConfig{
		MaxAttempts: 8, RequestTimeout: 5 * time.Second, DialTimeout: 5 * time.Second, Seed: h.seed + 99,
	})
	defer cl.Close()
	if err := cl.Flush(kvserver.ClassInteractive); err != nil {
		h.report("final sweep: Flush failed: %v", err)
	}
	checked := 0
	for wi, ws := range states {
		base := uint64(wi * h.keysPer)
		for j, ks := range ws {
			k := base + uint64(j)
			v, found, err := cl.Get(kvserver.ClassInteractive, k)
			if err != nil {
				h.report("final sweep: Get(%d) failed after recovery: %v", k, err)
				continue
			}
			checked++
			if !found {
				if ks.dfloor != 0 {
					h.report("final sweep: key %d absent, durability floor v%d lost", k, ks.dfloor)
				}
				continue
			}
			ver, ok := kvmodel.DecodeVerValue(k, v)
			if !ok {
				h.report("final sweep: key %d holds foreign bytes %x", k, v)
				continue
			}
			if !ks.valid(ver, true) {
				h.report("final sweep: key %d = v%d, durability floor v%d (lost sync-acked write)", k, ver, ks.dfloor)
			}
		}
	}
	// An ordered range over the whole modeled space double-checks the
	// store's scan path post-recovery.
	total := uint64(h.workers * h.keysPer)
	keys, err := rangeAllKeys(cl, total)
	if err != nil {
		h.report("final sweep: Range failed: %v", err)
		return
	}
	if !slices.IsSorted(keys) {
		h.report("final sweep: Range emitted keys out of order")
	}
	h.logf("final sweep: %d keys checked, %d live", checked, len(keys))
}

// rangeAllKeys pages through [0, hi] and returns the keys in emission
// order. Only the keys are kept: a returned value aliases its page's
// response frame, so accumulating the pairs would hold every page of
// the scan in memory until the sweep ends.
func rangeAllKeys(cl *kvclient.Retrying, hi uint64) ([]uint64, error) {
	var keys []uint64
	lo := uint64(0)
	for {
		kvs, more, err := cl.Range(kvserver.ClassInteractive, lo, hi, 0)
		if err != nil {
			return keys, err
		}
		for _, kv := range kvs {
			keys = append(keys, kv.Key)
		}
		if !more || len(kvs) == 0 {
			return keys, nil
		}
		lo = kvs[len(kvs)-1].Key + 1
	}
}
