package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"regexp"
	"slices"
	"strings"
	"testing"
)

func TestPercentile(t *testing.T) {
	xs := []int64{50, 10, 40, 20, 30}
	for _, c := range []struct {
		p    float64
		want int64
	}{{0, 10}, {0.5, 30}, {0.6, 30}, {0.61, 40}, {0.99, 50}, {1, 50}} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("percentile(%v) = %d, want %d", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of no samples = %d, want 0", got)
	}
	// The middle half of 1..8 is 3..6; one wild sample in a tail changes nothing.
	if got := midmean([]int64{8, 1, 7, 2, 6, 3, 5, 4}); got != 4.5 {
		t.Errorf("midmean(1..8) = %v, want 4.5", got)
	}
	if got := midmean([]int64{1000000, 1, 7, 2, 6, 3, 5, 4}); got != 4.5 {
		t.Errorf("midmean with an outlier = %v, want 4.5", got)
	}
	if got := midmean([]int64{7}); got != 7 {
		t.Errorf("midmean of one sample = %v, want 7", got)
	}
}

// The spread must be the one the driver computes with Python's
// statistics.quantiles(values, n=4): these are its answers.
func TestQuartilesMatchPython(t *testing.T) {
	q1, q3 := quartiles([]float64{10, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v, %v, want 2.75, 8.25", q1, q3)
	}
	q1, q3 = quartiles([]float64{3, 1, 2})
	if q1 != 1 || q3 != 3 {
		t.Errorf("quartiles(1..3) = %v, %v, want 1, 3", q1, q3)
	}
	if got := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); math.Abs(got-1) > 1e-12 {
		t.Errorf("spread(1..10) = %v, want 1", got)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{Name: "parent", Start: 0, End: 100, Parent: -1},
		{Name: "a", Start: 10, End: 30, Parent: 0},
		{Name: "b", Start: 20, End: 50, Parent: 0}, // overlaps a: counted once
		{Name: "c", Start: 60, End: 70, Parent: 0},
		{Name: "leaf", Start: 62, End: 65, Parent: 3},
	}
	want := []int64{50, 20, 30, 7, 3}
	for i, got := range selfTimes(spans) {
		if got != want[i] {
			t.Errorf("self time of %s = %d, want %d", spans[i].Name, got, want[i])
		}
	}
	if got := accounted([]span{{Name: "build", Start: 0, End: 100, Parent: -1}, {Name: "core.run", Start: 0, End: 90, Parent: 0}}); got != 0.9 {
		t.Errorf("accounted = %v, want 0.9", got)
	}
}

// The yardstick must do the same work every time: two of them agree on
// their checksum, and the keys come out sorted.
func TestYardstickIsFixedWork(t *testing.T) {
	a, b := newYardstick(), newYardstick()
	a.once()
	b.once()
	if a.sum != b.sum || a.sum == 0 {
		t.Errorf("checksums %d and %d, want equal and not 0", a.sum, b.sum)
	}
	if !slices.IsSorted(a.keys) {
		t.Error("the radix sort left the keys unsorted")
	}
	seen := make([]bool, len(a.next))
	for i, k := 0, int32(0); i < len(a.next); i, k = i+1, a.next[k] {
		if seen[k] {
			t.Fatalf("the pointer table's cycle closes after %d of %d steps", i, len(a.next))
		}
		seen[k] = true
	}
}

func TestVerdict(t *testing.T) {
	lower := metricDecl{Better: "lower", Bound: 0.10}
	higher := metricDecl{Better: "higher", Bound: 0.10}
	exact := metricDecl{Better: "lower"} // an exact count between sets of one seed: bound 0
	steady := []float64{100, 100, 101, 99}
	for _, c := range []struct {
		d            metricDecl
		base, change []float64
		want         string
	}{
		{lower, steady, []float64{105, 105, 106}, "ok"},
		{lower, steady, []float64{120, 120, 121}, "regressed"},
		{lower, steady, []float64{80, 120, 160}, "unresolved"},
		{higher, steady, []float64{120, 120, 121}, "ok"},
		{higher, steady, []float64{80, 80, 81}, "regressed"},
		{exact, []float64{100, 100}, []float64{100, 100}, "ok"},
		{exact, []float64{100, 100}, []float64{101, 101}, "regressed"},
	} {
		if _, got := verdict(c.d, c.d.Bound, c.base, c.change); got != c.want {
			t.Errorf("verdict(%s better, bound %v, %v -> %v) = %s, want %s", c.d.Better, c.d.Bound, c.base, c.change, got, c.want)
		}
	}
}

// benchmarkJSON mirrors BENCHMARK.json; unknown keys are an error.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// BENCHMARK.json and the declarations in this package must say the same
// thing, in both directions, and the README's tables must carry every
// workload and metric as declared.
func TestDeclarationsMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bj); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	if len(bj.Paths) != 1 || bj.Paths[0] != "benchmark" {
		t.Errorf("paths = %v, want [benchmark]", bj.Paths)
	}
	if bj.RunSeconds < 1 || bj.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", bj.RunSeconds)
	}
	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the benchmark %d", len(bj.Workloads), len(workloads))
	}
	seen := map[string]bool{}
	for i, w := range workloads {
		if bj.Workloads[i].Name != w.name || bj.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json says %q (%q), the benchmark %q (%q)", i, bj.Workloads[i].Name, bj.Workloads[i].Why, w.name, w.why)
		}
		if !nameRE.MatchString(w.name) || len(w.why) > 200 || strings.Contains(w.why, "\n") || seen[w.name] {
			t.Errorf("workload %q: bad or repeated name, or a why that is not one line of at most 200 characters", w.name)
		}
		if !bytes.Contains(readme, []byte("| `"+w.name+"` | "+w.why+" | "+w.op+" | "+w.work+" |")) {
			t.Errorf("README.md has no table row for workload %s as the benchmark declares it", w.name)
		}
		seen[w.name] = true
	}
	if len(bj.EndToEnd) != len(endToEnd) || len(bj.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json declares %d + %d metrics, the benchmark %d + %d", len(bj.EndToEnd), len(bj.PerLayer), len(endToEnd), len(perLayer))
	}
	e2e := map[string]bool{}
	hasSetup := false
	for i, d := range endToEnd {
		j := bj.EndToEnd[i]
		if j.Name != d.Name || j.Unit != d.Unit || j.Better != d.Better || j.Bound != d.Bound {
			t.Errorf("end-to-end %d: BENCHMARK.json says %+v, the benchmark %+v", i, j, d)
		}
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
		e2e[d.Name] = true
		hasSetup = hasSetup || (d.Name == "setup_s" && d.Unit == "s" && d.Better == "lower")
	}
	if !hasSetup {
		t.Error("no setup_s metric in s, lower is better")
	}
	for i, d := range perLayer {
		j := bj.PerLayer[i]
		if j.Name != d.Name || j.Unit != d.Unit || j.Better != d.Better {
			t.Errorf("per-layer %d: BENCHMARK.json says %+v, the benchmark %+v", i, j, d)
		}
		if d.Layer == "" {
			t.Errorf("%s: no layer", d.Name)
		}
		for _, m := range d.Moves {
			metric, workload, ok := strings.Cut(m, "@")
			if !ok || !e2e[metric] || findWorkload(workload) == nil {
				t.Errorf("%s moves %q, which is not a declared end-to-end metric @ workload", d.Name, m)
			}
		}
	}
	for _, d := range append(append([]metricDecl{}, endToEnd...), perLayer...) {
		if !nameRE.MatchString(d.Name) || !unitRE.MatchString(d.Unit) || seen[d.Name] {
			t.Errorf("metric %q (%s): bad or repeated name, or bad unit", d.Name, d.Unit)
		}
		if d.Better != "lower" && d.Better != "higher" {
			t.Errorf("%s: better = %q", d.Name, d.Better)
		}
		if !bytes.Contains(readme, []byte("| `"+d.Name+"` | ")) || !bytes.Contains(readme, []byte(d.Doc)) {
			t.Errorf("README.md has no table row for %s, or not its definition", d.Name)
		}
		seen[d.Name] = true
	}
}

// smokeOptions are tiny inputs and windows: every code path, no meaning.
func smokeOptions(workload string) options {
	return options{workload: workload, seed: 3, seconds: 0.2, smoke: true}
}

// Every workload completes with no failed operation and emits exactly
// the declared metrics, untraced and traced, none of the end-to-end
// ones zero.
func TestSmokeEveryWorkload(t *testing.T) {
	t.Chdir(t.TempDir()) // the traced pass writes bench-out/ under the working directory
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			var out, errOut bytes.Buffer
			args := []string{"--workload", w.name, "--seed", "3", "--seconds", "0.2", "--smoke", "--trace", "0"}
			decls := endToEnd
			if trace {
				args[len(args)-1], decls = "1", perLayer
			}
			if code := run(args, &out, &errOut); code != 0 {
				t.Fatalf("%s trace=%v: exit %d: %s", w.name, trace, code, errOut.String())
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var res result
			dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
			dec.DisallowUnknownFields()
			if err := dec.Decode(&res); err != nil {
				t.Fatalf("%s trace=%v: last line is not the result object: %v", w.name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v failed=%d attempted=%d", w.name, trace, res.Correct, res.Failed, res.Attempted)
			}
			if len(res.Metrics) != len(decls) {
				t.Errorf("%s trace=%v: %d metrics emitted, %d declared", w.name, trace, len(res.Metrics), len(decls))
			}
			for _, d := range decls {
				m, ok := res.Metrics[d.Name]
				if !ok || m.Unit != d.Unit || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
					t.Errorf("%s trace=%v: metric %s missing, in unit %q or not a number (%v)", w.name, trace, d.Name, m.Unit, m.Value)
				}
				if !trace && m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, must never be 0", w.name, d.Name, m.Value)
				}
			}
		}
		if _, err := os.Stat("bench-out/trace-" + w.name + ".json"); err != nil {
			t.Errorf("%s: the traced pass wrote no trace file: %v", w.name, err)
		}
	}
}

// The correctness gate is itself tested: each sabotage must show in
// failed, in correct and in the exit status.
func TestSabotageIsCaught(t *testing.T) {
	for name, sabotage := range map[string]func(*serveLoad){
		"wrong reference answer": func(s *serveLoad) { s.wd.st.want[0].Est.Dist++ },
		"foreign fingerprint":    func(s *serveLoad) { s.wd.st.fp ^= 1 },
		// An id outside the graph: the daemon refuses the frame.
		"refused request": func(s *serveLoad) { s.wd.st.qs[0].V = int32(s.inst.Graph().N()) },
	} {
		o := smokeOptions("serve-small")
		o.sabotage = func(ld load) { sabotage(ld.(*serveLoad)) }
		res, err := measure(findWorkload(o.workload), o)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.Correct || res.Failed == 0 || exitStatus(res) == 0 {
			t.Errorf("%s: correct=%v failed=%d exit=%d, want it caught", name, res.Correct, res.Failed, exitStatus(res))
		}
	}
	o := smokeOptions("serve-small")
	if res, err := measure(findWorkload(o.workload), o); err != nil || exitStatus(res) != 0 {
		t.Errorf("unsabotaged run: err=%v", err)
	}
}
