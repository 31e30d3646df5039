// Command benchmark is the repository's benchmark: four closed-loop
// workloads driven over loopback TCP against the served system, assembled
// only from the constructors cmd/kvserver uses. It prints every end-to-end
// metric by name with its unit, checks every output, and — in a separate
// traced run — attributes a served request to kvclient, kvserver,
// shardedkv, locks, core, storage and wal. README.md has the tables.
//
// Usage:
//
//	go run . [-workloads a,b] [-reps 3] [-dur 10s] [-seed 1] [-out r.json] [-trace-out spans.jsonl] [-notrace]
//	go run . -compare a.json b.json
//	go run . -workload <name> -seed <n> -seconds <s> -trace <0|1>    (BENCHMARK.json contract, via run.sh)
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"time"
)

// contractReps is how many fresh-server repetitions share one contract
// run's -seconds; the reported value is their median.
const contractReps = 3

// resultFile is what -out writes and -compare reads.
type resultFile struct {
	Context   runContext        `json:"context"`
	Claim     *string           `json:"claim"` // this benchmark claims no gain: always null
	Workloads []*workloadResult `json:"workloads"`
}

// runContext is recorded with every result: two results compare only on
// the same host class and settings.
type runContext struct {
	Commit     string  `json:"commit"`
	GoVersion  string  `json:"go_version"`
	HostCPUs   int     `json:"host_cpus"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Seed       uint64  `json:"seed"`
	Reps       int     `json:"reps"`
	DurS       float64 `json:"dur_s"`
	WarmS      float64 `json:"warm_s"`
	Time       string  `json:"time"`
}

// commitOf names the commit the measured program was built from: the VCS
// stamp of the binary when the build left one (go build in a checkout),
// else what git says about the working directory (go run and go test leave
// no stamp), else "unknown" (the contract's checkout is not a repository).
func commitOf() string {
	rev, dirty := "", false
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				dirty = s.Value == "true"
			}
		}
	}
	if rev == "" {
		head, err := exec.Command("git", "rev-parse", "HEAD").Output()
		if err != nil {
			return "unknown"
		}
		rev = strings.TrimSpace(string(head))
		status, err := exec.Command("git", "status", "--porcelain", "--untracked-files=no").Output()
		dirty = err != nil || len(status) > 0
	}
	if dirty {
		rev += "+dirty"
	}
	return rev
}

// procs is the GOMAXPROCS every run is pinned to: two closed-loop callers
// plus their server handlers on two processors, whatever the host has.
const procs = 2

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		names    = fs.String("workloads", "", "comma-separated workloads to run (default: all four)")
		reps     = fs.Int("reps", 3, "fresh-server repetitions per workload; the reported value is their median")
		dur      = fs.Duration("dur", 10*time.Second, "measured time per repetition, after a 1 s warm-up")
		seed     = fs.Uint64("seed", 1, "op-stream seed: the same seed gives the same requests")
		out      = fs.String("out", "", "write the result JSON here")
		traceOut = fs.String("trace-out", "", "append the traced runs' sampled spans to this file (JSON lines)")
		noTrace  = fs.Bool("notrace", false, "skip the traced run (end-to-end metrics only)")
		compare  = fs.Bool("compare", false, "compare two result files: -compare a.json b.json")
		scratch  = fs.String("scratch", filepath.Join(".bench_build", "data"), "directory for WAL files (created, emptied and removed by the run)")

		one     = fs.String("workload", "", "contract mode: the one workload to run")
		seconds = fs.Int("seconds", 0, "contract mode: measured seconds of the run")
		trace   = fs.Int("trace", 0, "contract mode: 0 = end-to-end metrics, 1 = per-layer metrics of the traced run")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "benchmark: -compare takes two result files")
			return 2
		}
		return compareFiles(fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	if fs.NArg() != 0 {
		fmt.Fprintf(stderr, "benchmark: unexpected argument %q\n", fs.Arg(0))
		return 2
	}
	if runtime.NumCPU() < procs {
		fmt.Fprintf(stderr, "benchmark: %d CPU available, need %d: both callers and the server must be able to run at once\n", runtime.NumCPU(), procs)
		return 2
	}
	runtime.GOMAXPROCS(procs)
	// Each process gets its own WAL directory, so two runs never share one.
	dataDir := filepath.Join(*scratch, fmt.Sprintf("run-%d", os.Getpid()))
	defer os.RemoveAll(dataDir)

	if *one != "" {
		wl, err := workloadByName(*one)
		if err != nil || *seconds < contractReps || (*trace != 0 && *trace != 1) {
			if err == nil {
				err = fmt.Errorf("need -seconds >= %d and -trace 0 or 1", contractReps)
			}
			fmt.Fprintf(stderr, "benchmark: %v\n", err)
			return 2
		}
		return runContract(wl, *seed, time.Duration(*seconds)*time.Second, *trace == 1, dataDir, stdout, stderr)
	}

	var wls []*workload
	if *names == "" {
		for i := range workloads {
			wls = append(wls, &workloads[i])
		}
	}
	for _, n := range strings.Split(*names, ",") {
		if n = strings.TrimSpace(n); n != "" {
			wl, err := workloadByName(n)
			if err != nil {
				fmt.Fprintf(stderr, "benchmark: %v\n", err)
				return 2
			}
			wls = append(wls, wl)
		}
	}
	if *reps < 1 || *dur < 100*time.Millisecond {
		fmt.Fprintln(stderr, "benchmark: need -reps >= 1 and -dur >= 100ms")
		return 2
	}

	res := resultFile{Context: runContext{
		Commit: commitOf(), GoVersion: runtime.Version(), HostCPUs: runtime.NumCPU(), GOMAXPROCS: procs,
		Seed: *seed, Reps: *reps, DurS: dur.Seconds(), WarmS: warmUp.Seconds(), Time: time.Now().UTC().Format(time.RFC3339),
	}}
	fmt.Fprintf(stdout, "benchmark: commit %s, %s, %d host CPUs, GOMAXPROCS %d, seed %d\n",
		res.Context.Commit, res.Context.GoVersion, res.Context.HostCPUs, procs, *seed)
	failed := false
	for _, wl := range wls {
		wr, err := runReps(wl, *seed, *reps, *dur, dataDir, stderr)
		if err != nil {
			fmt.Fprintf(stderr, "benchmark: %s: %v\n", wl.name, err)
			return 1
		}
		printEndToEnd(stdout, wr, *reps, dur.Seconds(), *seed)
		if !*noTrace {
			tr, err := runTraced(wl, *seed, tracedTotal(*dur), dataDir, *traceOut, stdout, stderr)
			if err != nil {
				fmt.Fprintf(stderr, "benchmark: %s: %v\n", wl.name, err)
				return 1
			}
			wr.PerLayer, wr.Budget = tr.metrics, tr.budget
			wr.Attempted += tr.attempted
			wr.Failed += tr.failed
		}
		failed = failed || wr.Failed > 0
		res.Workloads = append(res.Workloads, wr)
	}
	if *out != "" {
		if err := writeJSON(*out, &res); err != nil {
			fmt.Fprintf(stderr, "benchmark: %v\n", err)
			return 1
		}
	}
	if failed {
		fmt.Fprintln(stderr, "benchmark: output checks failed")
		return 1
	}
	return 0
}

// warmUp precedes every measured window of a wire pass.
const warmUp = time.Second

// tracedTotal sizes the traced run from the end-to-end repetition length:
// 1.5x gives the ~6 s traced wire pass and ~3 s direct pass of a 10 s rep.
func tracedTotal(dur time.Duration) time.Duration { return dur * 3 / 2 }

// runReps runs a workload's end-to-end repetitions, each on a fresh
// system, with tracing off.
func runReps(wl *workload, seed uint64, reps int, dur time.Duration, scratch string, stderr io.Writer) (*workloadResult, error) {
	fold := newRepFolder(wl)
	for i := 0; i < reps; i++ {
		r, err := runPass(passConfig{
			wl: wl, seed: seed, warm: warmUp, dur: dur,
			scratch: filepath.Join(scratch, "e2e"), stderr: stderr,
		})
		if err != nil {
			return nil, fmt.Errorf("repetition %d: %w", i+1, err)
		}
		fold.add(r)
	}
	return fold.result(), nil
}

// contractLine is the last line of a contract run's standard output.
type contractLine struct {
	Correct   bool                 `json:"correct"`
	Attempted uint64               `json:"attempted"`
	Failed    uint64               `json:"failed"`
	Metrics   map[string]metricVal `json:"metrics"`
}

// runContract is one run under the BENCHMARK.json contract: `seconds` of
// measurement on one workload, the metrics of the chosen kind as the last
// line of standard output, exit 0 only if every check passed.
func runContract(wl *workload, seed uint64, seconds time.Duration, traced bool, scratch string, stdout, stderr io.Writer) int {
	// A hang must not outlive the driver's patience silently.
	watchdog := time.AfterFunc(seconds+100*time.Second, func() {
		fmt.Fprintf(stderr, "benchmark: %s still running %v after its %v of measurement should have ended; giving up\n", wl.name, 100*time.Second, seconds)
		os.Exit(3)
	})
	defer watchdog.Stop()

	line := contractLine{Metrics: map[string]metricVal{}}
	if traced {
		tr, err := runTraced(wl, seed, seconds, scratch, "", stdout, stderr)
		if err != nil {
			fmt.Fprintf(stderr, "benchmark: %s: %v\n", wl.name, err)
			return 1
		}
		line.Attempted, line.Failed, line.Metrics = tr.attempted, tr.failed, tr.metrics
	} else {
		dur := seconds / contractReps
		wr, err := runReps(wl, seed, contractReps, dur, scratch, stderr)
		if err != nil {
			fmt.Fprintf(stderr, "benchmark: %s: %v\n", wl.name, err)
			return 1
		}
		printEndToEnd(stdout, wr, contractReps, dur.Seconds(), seed)
		line.Attempted, line.Failed = wr.Attempted, wr.Failed
		for _, m := range endToEnd {
			if contractMetric(m) {
				line.Metrics[m.name] = metricVal{Value: wr.EndToEnd[m.name].Median, Unit: m.unit}
			}
		}
	}
	line.Correct = line.Failed == 0
	enc, err := json.Marshal(line)
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", enc)
	if !line.Correct {
		fmt.Fprintf(stderr, "benchmark: %s: %d of %d requests failed their checks\n", wl.name, line.Failed, line.Attempted)
		return 1
	}
	return 0
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
