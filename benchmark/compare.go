package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

func readResult(path string) (*resultFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rf resultFile
	if err := json.Unmarshal(data, &rf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rf, nil
}

// compareFiles prints, for every (workload, end-to-end metric) the two
// result files share, both medians, how much worse b is than a, the bound,
// and the verdict. It is also the check that two sets of runs of one
// commit agree. The exit code is 1 when any row is "worse".
func compareFiles(pathA, pathB string, stdout, stderr io.Writer) int {
	a, err := readResult(pathA)
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 2
	}
	b, err := readResult(pathB)
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 2
	}
	return compareResults(a, b, stdout)
}

func compareResults(a, b *resultFile, w io.Writer) int {
	fmt.Fprintf(w, "a: commit %s, %d x %.1f s, seed %d, %d CPUs\n", a.Context.Commit, a.Context.Reps, a.Context.DurS, a.Context.Seed, a.Context.HostCPUs)
	fmt.Fprintf(w, "b: commit %s, %d x %.1f s, seed %d, %d CPUs\n", b.Context.Commit, b.Context.Reps, b.Context.DurS, b.Context.Seed, b.Context.HostCPUs)
	if a.Context.DurS != b.Context.DurS || a.Context.HostCPUs != b.Context.HostCPUs || a.Context.GOMAXPROCS != b.Context.GOMAXPROCS {
		fmt.Fprintln(w, "warning: the two results were not measured with the same settings on the same host class")
	}
	fmt.Fprintf(w, "%-14s %-24s %-9s %14s %14s %9s %9s  %s\n", "workload", "metric", "unit", "a median", "b median", "worse by", "bound", "verdict")
	worse := 0
	for _, wa := range a.Workloads {
		var wb *workloadResult
		for _, cand := range b.Workloads {
			if cand.Name == wa.Name {
				wb = cand
			}
		}
		if wb == nil {
			continue
		}
		for _, m := range endToEnd {
			va, okA := wa.EndToEnd[m.name]
			vb, okB := wb.EndToEnd[m.name]
			if !okA || !okB {
				continue
			}
			share, allowed := m.worseBy(va.Median, vb.Median)
			verdict := m.verdict(va, vb)
			if verdict == "worse" {
				worse++
			}
			fmt.Fprintf(w, "%-14s %-24s %-9s %14.4f %14.4f %+8.1f%% %8.1f%%  %s\n",
				wa.Name, m.name, m.unit, va.Median, vb.Median, 100*share, 100*allowed, verdict)
		}
	}
	if worse > 0 {
		return 1
	}
	return 0
}
