package main

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// benchmarkJSON mirrors the root BENCHMARK.json.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

// TestBenchmarkJSONMatchesTheProgram keeps the contract file and the
// metric tables in this package from drifting apart.
func TestBenchmarkJSONMatchesTheProgram(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bj); err != nil {
		t.Fatal(err)
	}
	if bj.RunSeconds%contractReps != 0 || bj.RunSeconds/contractReps < 5 {
		t.Errorf("run_seconds %d must split into %d repetitions of at least 5 s", bj.RunSeconds, contractReps)
	}
	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(bj.Workloads), len(workloads))
	}
	for i, w := range bj.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: BENCHMARK.json says %q (%q), the program %q (%q)", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
	}
	var contract []metricDef
	for _, m := range endToEnd {
		if contractMetric(m) {
			contract = append(contract, m)
		}
	}
	if len(bj.EndToEnd) != len(contract) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the program %d", len(bj.EndToEnd), len(contract))
	}
	for i, m := range bj.EndToEnd {
		d := contract[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better.String() || m.Bound != d.bound {
			t.Errorf("end_to_end[%d]: BENCHMARK.json %+v, the program %+v", i, m, d)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	if len(bj.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the program %d", len(bj.PerLayer), len(perLayer))
	}
	for i, m := range bj.PerLayer {
		d := perLayer[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better.String() {
			t.Errorf("per_layer[%d]: BENCHMARK.json %+v, the program %+v", i, m, d)
		}
	}
}

func TestFlagErrorsExitTwo(t *testing.T) {
	for _, args := range [][]string{
		{"-workloads", "no-such-workload"},
		{"-workload", "wire-point", "-seconds", "1"},
		{"-workload", "wire-point", "-seconds", "15", "-trace", "2"},
		{"-compare", "only-one.json"},
		{"-reps", "0"},
		{"stray"},
	} {
		var out, errb bytes.Buffer
		if code := run(args, &out, &errb); code != 2 {
			t.Errorf("run(%v) = %d, want 2 (stderr: %s)", args, code, errb.String())
		}
	}
}

// TestCorruptedStampFailsTheRun is the proof the output checks have teeth:
// the same short run passes clean and exits non-zero once every 64th
// written value carries the wrong key stamp.
func TestCorruptedStampFailsTheRun(t *testing.T) {
	if testing.Short() {
		t.Skip("starts a served system twice (about 3 s)")
	}
	base := []string{"-workloads", "wire-point", "-reps", "1", "-dur", "200ms", "-notrace", "-scratch", t.TempDir()}
	var out, errb bytes.Buffer
	if code := run(base, &out, &errb); code != 0 {
		t.Fatalf("clean run exited %d: %s", code, errb.String())
	}
	if !strings.Contains(out.String(), "failed 0") {
		t.Errorf("clean run did not report zero failures:\n%s", out.String())
	}
	out.Reset()
	errb.Reset()
	corruptEvery = 64
	defer func() { corruptEvery = 0 }()
	if code := run(base, &out, &errb); code == 0 {
		t.Fatalf("run with corrupted stamps exited 0:\n%s", out.String())
	}
	if !strings.Contains(errb.String(), "value stamped for key") {
		t.Errorf("corrupted run did not name the stamp check: %s", errb.String())
	}
}

// TestCommitIsRecordedInsideAGitCheckout: go test stamps no VCS info into
// the binary, the way `go run .` does not, so this is the fallback's test.
func TestCommitIsRecordedInsideAGitCheckout(t *testing.T) {
	if err := exec.Command("git", "rev-parse", "HEAD").Run(); err != nil {
		t.Skip("not inside a git checkout with a commit")
	}
	if got := commitOf(); got == "unknown" || len(strings.TrimSuffix(got, "+dirty")) < 40 {
		t.Errorf("commitOf() = %q inside a git checkout, want a full revision", got)
	}
}

func TestCompareVerdicts(t *testing.T) {
	mk := func(p99 []float64, ops []float64) *resultFile {
		wr := &workloadResult{Name: "wire-point", EndToEnd: map[string]repValue{
			"interactive_p99_us": summarize("us", p99),
			"ops_per_s":          summarize("1/s", ops),
		}}
		return &resultFile{Workloads: []*workloadResult{wr}}
	}
	a := mk([]float64{50, 50, 50}, []float64{90000, 90500, 91000})
	var out bytes.Buffer
	if code := compareResults(a, mk([]float64{51, 51, 51}, []float64{89000, 90000, 91000}), &out); code != 0 {
		t.Errorf("agreeing results compared as %d:\n%s", code, out.String())
	}
	if n := strings.Count(out.String(), "within-bound"); n != 2 {
		t.Errorf("want 2 within-bound rows, got %d:\n%s", n, out.String())
	}
	out.Reset()
	if code := compareResults(a, mk([]float64{70, 70, 70}, []float64{60000, 90000, 120000}), &out); code != 1 {
		t.Errorf("a 40 %% worse p99 compared as %d", code)
	}
	if !strings.Contains(out.String(), "worse") || !strings.Contains(out.String(), "unresolved") {
		t.Errorf("want one worse and one unresolved row:\n%s", out.String())
	}
}
