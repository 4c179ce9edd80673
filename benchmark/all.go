package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
)

// machine records what a result set was measured on, so that two sets are
// only ever compared knowingly across hardware.
type machine struct {
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"window_seconds"`
	Runs       int     `json:"runs"`
	Smoke      bool    `json:"smoke"`
	NProc      int     `json:"nproc"`
	GoMaxProcs int     `json:"gomaxprocs"`
	CPU        string  `json:"cpu"`
	Go         string  `json:"go"`
	Commit     string  `json:"commit"`
}

// resultSet is what --workload all writes and --compare reads: for each
// workload, every end-to-end metric's value in each untraced run, and
// the per-layer metrics of the one traced run.
type resultSet struct {
	Machine   machine                    `json:"machine"`
	Workloads map[string]*workloadResult `json:"workloads"`
}

type workloadResult struct {
	Why       string               `json:"why"`
	Attempted int64                `json:"attempted"`
	Failed    int64                `json:"failed"`
	EndToEnd  map[string][]float64 `json:"end_to_end"`
	PerLayer  map[string]float64   `json:"per_layer"`
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

func commit() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown" // a checkout without its repository
	}
	return strings.TrimSpace(string(out))
}

// child runs one workload in a fresh process of this binary, so that each
// starts with a clean heap and GC pacer and owns its peak RSS, and
// returns the JSON object of its last line.
func child(o options, w string, trace int, stderr io.Writer) (*result, error) {
	args := []string{"--workload", w, "--seed", strconv.FormatInt(o.seed, 10),
		"--seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64), "--trace", strconv.Itoa(trace)}
	if o.smoke {
		args = append(args, "--smoke")
	}
	cmd := exec.Command(os.Args[0], args...)
	cmd.Stderr = stderr
	out, err := cmd.Output()
	last := bytes.TrimSpace(out)
	last = last[bytes.LastIndexByte(last, '\n')+1:]
	var res result
	if jerr := json.Unmarshal(last, &res); jerr != nil {
		return nil, fmt.Errorf("%s: no result (%v, exit: %v)", w, jerr, err)
	}
	return &res, nil
}

// runAll measures every workload, o.runs times untraced and once traced,
// prints the medians and writes the result set.
func runAll(o options, stdout, stderr io.Writer) int {
	set := &resultSet{
		Machine: machine{Seed: o.seed, Seconds: o.seconds, Runs: o.runs, Smoke: o.smoke, NProc: runtime.NumCPU(),
			GoMaxProcs: runtime.GOMAXPROCS(0), CPU: cpuModel(), Go: runtime.Version(), Commit: commit()},
		Workloads: map[string]*workloadResult{},
	}
	fmt.Fprintf(stdout, "machine: %+v\n", set.Machine)
	status := 0
	for _, w := range workloads {
		wr := &workloadResult{Why: w.why, EndToEnd: map[string][]float64{}, PerLayer: map[string]float64{}}
		set.Workloads[w.name] = wr
		for r := 0; r <= o.runs; r++ {
			trace := 0
			if r == o.runs {
				trace = 1
			}
			res, err := child(o, w.name, trace, stderr)
			if err != nil {
				fmt.Fprintf(stderr, "benchmark: %v\n", err)
				return 1
			}
			wr.Attempted += res.Attempted
			wr.Failed += res.Failed
			for name, m := range res.Metrics {
				if trace == 0 {
					wr.EndToEnd[name] = append(wr.EndToEnd[name], m.Value)
				} else {
					wr.PerLayer[name] = m.Value
				}
			}
		}
		fmt.Fprintf(stdout, "%s: failed %d of %d (fail_frac %g)\n", w.name, wr.Failed, wr.Attempted, ratio(float64(wr.Failed), float64(wr.Attempted)))
		for _, d := range endToEnd {
			fmt.Fprintf(stdout, "  %-34s %16.6g %-8s spread %.3f\n", d.Name, medianF(wr.EndToEnd[d.Name]), d.Unit, spread(wr.EndToEnd[d.Name]))
		}
		for _, d := range perLayer {
			fmt.Fprintf(stdout, "  %-34s %16.6g %s\n", d.Name, wr.PerLayer[d.Name], d.Unit)
		}
		if wr.Failed > 0 {
			status = 1
		}
	}
	path := o.out
	if path == "" {
		path = filepath.Join("bench-out", fmt.Sprintf("results-seed%d.json", o.seed))
	}
	data, err := json.MarshalIndent(set, "", "  ")
	if err == nil {
		if err = os.MkdirAll(filepath.Dir(path), 0o755); err == nil {
			err = os.WriteFile(path, append(data, '\n'), 0o644)
		}
	}
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "wrote %s\n", path)
	return status
}

func readSet(path string) (*resultSet, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var set resultSet
	if err := json.Unmarshal(data, &set); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &set, nil
}

// verdict compares one metric of one workload between a base and a
// changed result set under bound. worse is the share of the base median
// by which the change is worse (negative when it is better). A metric
// worse by more than the bound has regressed, unless the runs of either
// side spread wider than the bound: then the comparison cannot tell, and
// it is unresolved rather than unchanged or regressed.
func verdict(d metricDecl, bound float64, base, change []float64) (worse float64, v string) {
	a, b := medianF(base), medianF(change)
	if a == 0 {
		return 0, "unresolved"
	}
	worse = (b - a) / a
	if d.Better == "higher" {
		worse = -worse
	}
	switch {
	case worse <= bound:
		return worse, "ok"
	case spread(base) > bound || spread(change) > bound:
		return worse, "unresolved"
	}
	return worse, "regressed"
}

// compareFiles reports every end-to-end metric of every workload in both
// sets and exits non-zero if any regressed or any operation failed.
func compareFiles(basePath, changePath string, stdout, stderr io.Writer) int {
	var sets [2]*resultSet
	for i, path := range []string{basePath, changePath} {
		set, err := readSet(path)
		if err != nil {
			fmt.Fprintf(stderr, "benchmark: %v\n", err)
			return 2
		}
		sets[i] = set
	}
	return compareSets(sets[0], sets[1], stdout)
}

func compareSets(base, change *resultSet, stdout io.Writer) int {
	if base.Machine.CPU != change.Machine.CPU || base.Machine.GoMaxProcs != change.Machine.GoMaxProcs ||
		base.Machine.Seconds != change.Machine.Seconds || base.Machine.Smoke != change.Machine.Smoke {
		fmt.Fprintf(stdout, "warning: the sets differ in machine or window:\n  %+v\n  %+v\n", base.Machine, change.Machine)
	}
	status := 0
	fmt.Fprintf(stdout, "%-14s %-15s %14s %14s %8s %6s  %s\n", "workload", "metric", "base", "change", "worse", "bound", "verdict")
	for _, w := range workloads {
		a, b := base.Workloads[w.name], change.Workloads[w.name]
		if a == nil || b == nil {
			fmt.Fprintf(stdout, "%-14s missing from a set\n", w.name)
			status = 1
			continue
		}
		if a.Failed > 0 || b.Failed > 0 {
			fmt.Fprintf(stdout, "%-14s failed operations: base %d, change %d\n", w.name, a.Failed, b.Failed)
			status = 1
		}
		for _, d := range endToEnd {
			bound := d.Bound
			if d.Exact && base.Machine.Seed == change.Machine.Seed && base.Machine.Smoke == change.Machine.Smoke {
				bound = 0
			}
			worse, v := verdict(d, bound, a.EndToEnd[d.Name], b.EndToEnd[d.Name])
			fmt.Fprintf(stdout, "%-14s %-15s %14.6g %14.6g %+7.1f%% %5.0f%%  %s\n", w.name, d.Name,
				medianF(a.EndToEnd[d.Name]), medianF(b.EndToEnd[d.Name]), 100*worse, 100*bound, v)
			if v == "regressed" {
				status = 1
			}
		}
	}
	return status
}
