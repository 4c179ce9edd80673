// Command benchmark is the repository's benchmark of record. One run
// measures one workload for a fixed window and prints one JSON object as
// the last line of its standard output; BENCHMARK.json at the repository
// root declares the workloads and every metric by name. README.md in
// this directory says what each number means and how they interact.
//
//	bash benchmark/run.sh --workload serve-small --seed 1 --seconds 10 --trace 0
//	bash benchmark/run.sh --workload all --out bench-out/a.json
//	bash benchmark/run.sh --compare bench-out/a.json bench-out/b.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"pde/internal/scheme"
)

// options is one invocation's command line.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	smoke    bool
	out      string
	runs     int
	// sabotage, set only by the test of the correctness gate, damages the
	// system under test or its reference answers before the window.
	sabotage func(load)
}

// workloadDef declares one workload: its name, the one-line reason it
// exists, and how to make its system under test from the options.
type workloadDef struct {
	name string
	why  string
	// op and work say what op_cal_us and work_per_cal_s measure here.
	op, work string
	make     func(o options, tl *tally) load
}

// size picks the full-size value, or the tiny one under --smoke.
func size(o options, full, tiny int) int {
	if o.smoke {
		return tiny
	}
	return full
}

// apsp is the full-APSP serving spec of the serve-* workloads.
func apsp(o options, n int) scheme.Spec {
	return scheme.Spec{Topology: "random", N: size(o, n, 48), Eps: 1, MaxW: 4, Seed: o.seed}
}

// partial is the partial (h, σ) oracle spec of the build and churn
// workloads.
func partial(o options, topology string, n int, maxW int64, h, sigma int) scheme.Spec {
	return scheme.Spec{Topology: topology, N: size(o, n, 64), Eps: 0.5, MaxW: maxW,
		H: size(o, h, 8), Sigma: size(o, sigma, 4), Seed: o.seed}
}

var workloads = []workloadDef{
	{
		name: "build-dense",
		why:  "message-bound partial (h,sigma) build on a dense community graph: congest delivery and detection list merging do nearly all the work, serving none",
		op:   "one cold scheme.Build of oracle community n=512 eps=0.5 maxw=64 h=32 sigma=16", work: "simulated CONGEST messages delivered per wall second",
		make: func(o options, tl *tally) load {
			return &buildLoad{sp: partial(o, "community", 512, 64, 32, 16), tl: tl}
		},
	},
	{
		name: "build-sparse",
		why:  "round-bound build on a low-degree high-diameter road grid: same engine, per-round scheduling and idle-round skipping dominate, so a per-message win that costs per round shows",
		op:   "one cold scheme.Build of oracle roadgrid n=1024 eps=0.5 maxw=64 h=32 sigma=16", work: "simulated CONGEST messages delivered per wall second",
		make: func(o options, tl *tally) load {
			return &buildLoad{sp: partial(o, "roadgrid", 1024, 64, 32, 16), tl: tl}
		},
	},
	{
		name: "serve-bulk",
		why:  "16384-query PDE2 frames at depth 4 on APSP tables: the oracle answer kernels and the frame-local radix sort do most of the work, transport little",
		op:   "one pass of 16 frames of 16384 estimate queries, 1 connection, 4 frames in flight, random n=384 APSP tables", work: "verified estimate answers per second",
		make: func(o options, tl *tally) load {
			return &serveLoad{sp: apsp(o, 384), tl: tl, frame: size(o, 16384, 256), stream: size(o, 262144, 2048), depth: 4}
		},
	},
	{
		name: "serve-small",
		why:  "16-query PDE2 frames: framing, syscalls and scheduling dominate a round trip of which the lookup is a small part; the regime pipelining exists for",
		op:   "one 16-query estimate frame, 1 closed-loop connection, 1 frame in flight, random n=256 APSP tables (first half of the window)", work: "verified answers per second with 16 frames in flight on that connection (second half)",
		make: func(o options, tl *tally) load {
			return &serveLoad{sp: apsp(o, 256), tl: tl, frame: 16, stream: size(o, 65536, 2048), rtt: true, depth: 16}
		},
	},
	{
		name: "serve-relay",
		why:  "the same small frames through cluster.Coordinator.ServeWire over two daemons: the relay hop and its failover bookkeeping are the added work",
		op:   "one 16-query estimate frame through the coordinator's PDE2 relay, 1 closed-loop connection", work: "verified answers per second through the relay",
		make: func(o options, tl *tally) load {
			return &serveLoad{sp: apsp(o, 256), tl: tl, frame: 16, stream: size(o, 65536, 2048), relay: true, rtt: true}
		},
	},
	{
		name: "serve-http",
		why:  "the same small batches as JSON /v1/estimate over keep-alive HTTP: net/http, JSON and the micro-batcher are the added work",
		op:   "one 16-query JSON /v1/estimate request, 1 closed-loop keep-alive client", work: "verified answers per second over JSON",
		make: func(o options, tl *tally) load {
			return &serveLoad{sp: apsp(o, 256), tl: tl, frame: 16, stream: size(o, 65536, 2048), http: true}
		},
	},
	{
		name: "churn-mixed",
		why:  "writes beside reads: batches of 4 single-edge reweights through /v1/update (core.Patch, not core.Run) hot-swap the tables while a PDE2 reader competes for the same cores",
		op:   "one /v1/update of 4 single-edge +-1 reweights, request sent to new generation published, back to back, oracle roadgrid n=576 eps=0.5 maxw=1024 h=16 sigma=8", work: "rounding instances the updates re-detected per second of update time; the concurrent reader's 256-query PDE2 frames are checked, not rated",
		make: func(o options, tl *tally) load {
			return &churnLoad{sp: partial(o, "roadgrid", 576, 1024, 16, 8), tl: tl, frame: size(o, 256, 16)}
		},
	},
	{
		name: "aggregate-mix",
		why:  "the expensive-estimate regime on a compact k=3 instance: compact AnswerInto, Route, the route LRU and setdist landmark pruning do the work",
		op:   "one pruned JSON /v1/setdist request between sets of 32 and 64 nodes, compact k=3 community n=256", work: "expanded routes per second from a concurrent client, 16-pair /v1/route requests, half hot set half uniform",
		make: func(o options, tl *tally) load {
			sp := scheme.Spec{Scheme: "compact", K: 3, Topology: "community", N: size(o, 256, 48), Eps: 0.5, MaxW: 8, Seed: o.seed}
			return &aggLoad{sp: sp, tl: tl, requests: size(o, 2048, 32)}
		},
	},
}

func findWorkload(name string) *workloadDef {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// metricValue is one reported number.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object a run prints last.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// A run sets its system up at least minSetups times, and again while the
// set-ups so far took under setupBudget in all, up to maxSetups: a short
// set-up is repeated more often, since setup_s is their median and a
// short time is moved furthest by a burst of interference. parts is how
// many equal parts the measured window is split into (2 under --smoke).
const (
	minSetups   = 3
	maxSetups   = 9
	setupBudget = 2500 * time.Millisecond
	parts       = 10
)

// yardNominal is the yardstick time that calibrated time is scaled to:
// about what it takes on the machine the first numbers came from, so that
// calibrated microseconds there are close to real ones.
const yardNominal = 50 * time.Millisecond

// measure runs one workload untraced and returns the end-to-end metrics.
func measure(w *workloadDef, o options) (*result, error) {
	tl := &tally{}
	ld := w.make(o, tl)
	defer ld.teardown()
	var times []float64
	for spent := time.Duration(0); len(times) < minSetups || (spent < setupBudget && len(times) < size(o, maxSetups, minSetups)); {
		if len(times) > 0 {
			ld.teardown()
		}
		runtime.GC() // every set-up starts from a collected heap, or the previous one's garbage sets its pace
		t0 := time.Now()
		if err := ld.setup(); err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", w.name, err)
		}
		d := time.Since(t0)
		times, spent = append(times, d.Seconds()), spent+d
	}
	if err := ld.prepare(); err != nil {
		return nil, fmt.Errorf("%s: reference answers: %w", w.name, err)
	}
	if o.sabotage != nil {
		o.sabotage(ld)
	}
	runtime.GC() // the earlier set-ups' garbage is not the window's to collect
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	yard := newYardstick()
	yard.time() // its own warm-up: the arrays' pages are touched
	// The window is measured in parts, with the yardstick timed before,
	// between and after them. Interference from outside the process only
	// ever slows a part down, so the parts' lower quartile (upper, for a
	// rate) is the steady number, and the yardstick's lower quartile over
	// the same seconds scales it to calibrated time.
	n := size(o, parts, 2)
	ops, rates, yards := make([]float64, n), make([]float64, n), make([]float64, n+1)
	yards[0] = yard.time().Seconds()
	for k := range ops {
		s := ld.run(time.Duration(o.seconds/float64(n)*float64(time.Second)), nil)
		if len(s.lat) == 0 || s.work == 0 {
			return nil, fmt.Errorf("%s: part %d of the window completed no operation", w.name, k)
		}
		ops[k], rates[k] = midmean(s.lat), s.work/s.workSecs
		runtime.GC() // the part's garbage is not the yardstick's to collect, nor the next part's
		yards[k+1] = yard.time().Seconds()
	}
	ld.verify()
	inst := ld.served()
	var rounds, messages int64
	for _, r := range pdeResults(inst) {
		rounds += int64(r.ActiveRounds)
		messages += r.Messages
	}
	opQ1, _ := quartiles(ops)
	_, rateQ3 := quartiles(rates)
	yardQ1, _ := quartiles(yards)
	speed := yardQ1 / yardNominal.Seconds() // how much slower than nominal the machine ran during the window
	vals := map[string]float64{
		"setup_s":        medianF(times),
		"op_cal_us":      opQ1 / 1e3 / speed,
		"work_per_cal_s": rateQ3 * speed,
		"build_rounds":   float64(rounds),
		"build_messages": float64(messages),
		"table_bytes":    float64(inst.Accounting().TableBytes),
		"heap_mb":        float64(ms.HeapAlloc) / (1 << 20),
	}
	return finish(tl, vals, endToEnd), nil
}

// finish turns measured values into the result object, with the units
// the declarations give.
func finish(tl *tally, vals map[string]float64, decls []metricDecl) *result {
	res := &result{Attempted: tl.attempted.Load(), Failed: tl.failed.Load(), Metrics: map[string]metricValue{}}
	res.Correct = res.Failed == 0
	for _, d := range decls {
		res.Metrics[d.Name] = metricValue{Value: vals[d.Name], Unit: d.Unit}
	}
	return res
}

// peakRSSMB reads the process's resident-set high-water mark.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, _ := strconv.ParseFloat(f[1], 64) // a malformed line reads 0
			return kb / 1024
		}
	}
	return 0
}

// printResult writes every metric by name with its unit, then the JSON
// object as the last line.
func printResult(out io.Writer, w *workloadDef, o options, res *result) error {
	fmt.Fprintf(out, "workload %s seed %d window %gs trace %v smoke %v gomaxprocs %d %s\n",
		w.name, o.seed, o.seconds, o.trace, o.smoke, runtime.GOMAXPROCS(0), runtime.Version())
	if !o.trace {
		fmt.Fprintf(out, "  op_cal_us times: %s\n  work_per_cal_s counts: %s\n", w.op, w.work)
	}
	names := make([]string, 0, len(res.Metrics))
	for name := range res.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := res.Metrics[name]
		fmt.Fprintf(out, "  %-34s %16.6g %s\n", name, m.Value, m.Unit)
	}
	fmt.Fprintf(out, "  %-34s %16d of %d\n", "failed", res.Failed, res.Attempted)
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(out, "%s\n", line)
	return err
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var trace int
	var compare bool
	fs.StringVar(&o.workload, "workload", "", "workload to run, or all: "+workloadNames())
	fs.Int64Var(&o.seed, "seed", 1, "seed of every generator, query stream, arrival schedule and churn stream")
	fs.Float64Var(&o.seconds, "seconds", 10, "length of the measured window")
	fs.IntVar(&trace, "trace", 0, "1 runs the traced pass and reports the per-layer metrics")
	fs.BoolVar(&o.smoke, "smoke", false, "tiny inputs, for the smoke test; the numbers mean nothing")
	fs.StringVar(&o.out, "out", "", "with --workload all: result-set file to write (default bench-out/results-seed<seed>.json)")
	fs.IntVar(&o.runs, "runs", 3, "with --workload all: untraced runs per workload")
	fs.BoolVar(&compare, "compare", false, "compare two result-set files given as arguments")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	o.trace = trace != 0
	switch {
	case compare:
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "benchmark: --compare needs two result-set files")
			return 2
		}
		return compareFiles(fs.Arg(0), fs.Arg(1), stdout, stderr)
	case o.workload == "all":
		return runAll(o, stdout, stderr)
	}
	w := findWorkload(o.workload)
	if w == nil || o.seconds <= 0 {
		fmt.Fprintf(stderr, "benchmark: --workload must be one of %s, or all; --seconds positive\n", workloadNames())
		return 2
	}
	var res *result
	var err error
	if o.trace {
		res, err = measureTraced(w, o)
	} else {
		res, err = measure(w, o)
	}
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 1
	}
	if err := printResult(stdout, w, o, res); err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 1
	}
	return exitStatus(res)
}

// exitStatus is non-zero when any operation failed: a wrong answer is
// not a measurement.
func exitStatus(res *result) int {
	if !res.Correct {
		return 1
	}
	return 0
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, ", ")
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }
