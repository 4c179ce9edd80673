package main

import (
	"flag"
	"fmt"
	"io"
	"slices"

	"pde"
	"pde/internal/baseline"
	"pde/internal/congest"
	"pde/internal/core"
	"pde/internal/graph"
	"pde/internal/scheme"
)

// apsp runs the deterministic (1+ε)-approximate APSP of Theorem 4.1 and
// reports rounds, messages and stretch against exact ground truth.
func apsp(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("apsp", flag.ContinueOnError)
	n := fs.Int("n", 80, "number of nodes")
	eps := fs.Float64("eps", 0.5, "approximation slack ε")
	maxw := fs.Int64("maxw", 32, "maximum edge weight")
	topology := fs.String("topology", "random", "random | geometric | internet")
	seed := fs.Int64("seed", 1, "generator seed")
	baselines := fs.Bool("baselines", false, "also run Bellman-Ford and flooding")
	if err := fs.Parse(args); err != nil {
		return usageError{err}
	}

	var g *pde.Graph
	switch *topology {
	case "random":
		g = pde.RandomGraph(*n, 6.0/float64(*n), *maxw, *seed)
	case "geometric":
		g = pde.GeometricGraph(*n, 0.25, *maxw, *seed)
	case "internet":
		g = pde.InternetGraph(*n, *maxw, *seed)
	default:
		return usageError{fmt.Errorf("unknown topology %q", *topology)}
	}
	fmt.Fprintf(out, "graph: %s n=%d m=%d maxW=%d\n", *topology, g.N(), g.M(), g.MaxWeight())

	res, err := pde.ApproxAPSP(g, *eps, pde.Config{Parallel: true})
	if err != nil {
		return err
	}
	truth := pde.GroundTruth(g)
	worst, sum, cnt := 1.0, 0.0, 0
	for v := 0; v < g.N(); v++ {
		for _, e := range res.Lists[v] {
			exact := truth.Dist(v, int(e.Src))
			if exact == 0 {
				continue
			}
			s := e.Dist / float64(exact)
			sum += s
			cnt++
			worst = max(worst, s)
		}
	}
	fmt.Fprintf(out, "PDE APSP:   rounds=%d (budget) / %d (active)  messages=%d  instances=%d\n",
		res.BudgetRounds, res.ActiveRounds, res.Messages, len(res.Instances))
	fmt.Fprintf(out, "stretch:    max=%.4f mean=%.4f bound=%.2f\n", worst, sum/float64(cnt), 1+*eps)
	if !*baselines {
		return nil
	}
	bf, err := pde.BellmanFordAPSP(g, pde.Config{Parallel: true})
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "BellmanFord: rounds=%d messages=%d (exact)\n", bf.Metrics.ActiveRounds, bf.Metrics.Messages)
	fl, err := pde.FloodingAPSP(g, pde.Config{Parallel: true})
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "Flooding:    rounds=%d messages=%d table=%d words (exact)\n",
		fl.Metrics.ActiveRounds, fl.Metrics.Messages, fl.TableWords)
	return nil
}

// rtcTables builds Theorem 4.5 routing tables (scheme "rtc") and reports
// the round breakdown, table/label accounting and measured stretch of the
// Instance a pde-serve daemon would serve.
func rtcTables(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("rtc", flag.ContinueOnError)
	topology := fs.String("topology", "random", graph.GeneratorList())
	n := fs.Int("n", 60, "number of nodes")
	k := fs.Int("k", 2, "stretch parameter (stretch <= 6k-1)")
	eps := fs.Float64("eps", 0.25, "PDE slack")
	maxW := fs.Int64("maxw", 16, "maximum edge weight")
	prob := fs.Float64("p", 0.25, "skeleton sampling probability (0 = paper's n^{-1/2-1/(4k)})")
	seed := fs.Int64("seed", 1, "seed")
	trees := fs.Bool("trees", false, "print Lemma 4.4 tree statistics")
	if err := fs.Parse(args); err != nil {
		return usageError{err}
	}

	inst, err := scheme.Build(scheme.Spec{
		Scheme: "rtc", Topology: *topology, N: *n, Eps: *eps, MaxW: *maxW,
		Seed: *seed, K: *k, SampleProb: *prob,
	})
	if err != nil {
		return err
	}
	sch, g := inst.(*scheme.RTCInstance).Sch, inst.Graph()
	fmt.Fprintf(out, "graph: %s n=%d m=%d   skeleton |S|=%d   spanner edges=%d   fingerprint=%016x\n",
		*topology, g.N(), g.M(), len(sch.Skeleton), len(sch.Span.Edges), inst.Fingerprint())
	fmt.Fprintf(out, "rounds: short-range=%d skeleton=%d spanner=%d tree-labeling=%d total=%d\n",
		sch.Rounds.ShortRangePDE, sch.Rounds.SkeletonPDE, sch.Rounds.Spanner,
		sch.Rounds.TreeLabeling, sch.Rounds.Total)
	a := inst.Accounting()
	fmt.Fprintf(out, "stretch: max=%.3f mean=%.3f over %d probe routes, bound(6k-1)=%.0f\n",
		a.MeasuredStretch, a.MeanStretch, a.ProbeRoutes, a.StretchBound)
	fmt.Fprintf(out, "tables: %d words (%.1f KiB)   labels: max %d bits, mean %.1f (O(log n))\n",
		a.Entries, float64(a.TableBytes)/1024, a.MaxLabelBits, a.AvgLabelBits)
	if *trees {
		depths, perNode := sch.TreeStats()
		slices.Sort(depths)
		slices.Sort(perNode)
		fmt.Fprintf(out, "trees: %d total; depth median=%d max=%d; trees/node median=%d max=%d\n",
			len(depths), depths[len(depths)/2], depths[len(depths)-1],
			perNode[len(perNode)/2], perNode[len(perNode)-1])
	}
	return nil
}

// compactTables builds the §4.3 compact routing hierarchy (scheme
// "compact") and reports the table-size/stretch trade-off, including
// Theorem 4.13's (simulate) and Corollary 4.14's (broadcast) truncations.
func compactTables(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("compact", flag.ContinueOnError)
	topology := fs.String("topology", "random", graph.GeneratorList())
	n := fs.Int("n", 50, "number of nodes")
	k := fs.Int("k", 3, "levels (stretch <= 4k-3)")
	l0 := fs.Int("l0", 0, "truncation level (0 = none)")
	strategy := fs.String("strategy", "none", "none | simulate | broadcast")
	maxW := fs.Int64("maxw", 12, "maximum edge weight")
	seed := fs.Int64("seed", 1, "seed")
	if err := fs.Parse(args); err != nil {
		return usageError{err}
	}

	inst, err := scheme.Build(scheme.Spec{
		Scheme: "compact", Topology: *topology, N: *n, Eps: 0.25, MaxW: *maxW,
		Seed: *seed, K: *k, Strategy: *strategy, L0: *l0,
	})
	if err != nil {
		return err
	}
	sch, g := inst.(*scheme.CompactInstance).Sch, inst.Graph()
	fmt.Fprintf(out, "graph: %s n=%d m=%d   fingerprint=%016x\n", *topology, g.N(), g.M(), inst.Fingerprint())
	for l := 0; l < *k; l++ {
		fmt.Fprintf(out, "level %d: |S_%d| = %d\n", l, l, len(sch.Levels[l]))
	}
	fmt.Fprintf(out, "rounds: direct=%d skeleton=%d truncated=%d tree-labeling=%d total=%d\n",
		sch.Rounds.DirectLevels, sch.Rounds.SkeletonPDE, sch.Rounds.TruncatedSim,
		sch.Rounds.TreeLabeling, sch.Rounds.Total)
	a := inst.Accounting()
	fmt.Fprintf(out, "stretch: max=%.3f mean=%.3f over %d probe routes, bound(4k-3)=%.0f\n",
		a.MeasuredStretch, a.MeanStretch, a.ProbeRoutes, a.StretchBound)
	fmt.Fprintf(out, "tables: %d words incl. %d shared (%.1f KiB)   labels: max %d bits, mean %.1f (O(k log n))\n",
		a.Entries, sch.SharedWords(), float64(a.TableBytes)/1024, a.MaxLabelBits, a.AvgLabelBits)
	return nil
}

// figure1 runs the paper's Figure 1 lower-bound gadget: exact (S, h+1,
// σ)-detection needs ~σ·h rounds (every pair crosses the one bottleneck
// edge), while PDE's round budget is additive in h+σ.
func figure1(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("figure1", flag.ContinueOnError)
	h := fs.Int("h", 8, "gadget chain length h")
	sigma := fs.Int("sigma", 8, "sources per column σ")
	eps := fs.Float64("eps", 1, "PDE approximation slack")
	if err := fs.Parse(args); err != nil {
		return usageError{err}
	}

	f := pde.Figure1Gadget(*h, *sigma)
	fmt.Fprintf(out, "gadget: h=%d σ=%d n=%d (σ·h = %d pairs must cross the dashed edge)\n",
		*h, *sigma, f.G.N(), *sigma**h)

	isSource := make([]bool, f.G.N())
	for _, s := range f.Sources {
		isSource[s] = true
	}
	exact := baseline.ExactParams{IsSource: isSource, H: *h + 1, Sigma: *sigma}
	want := baseline.ExactBruteForce(f.G, exact)
	correctAt := -1
	exact.Probe = func(round int, list func(v int) []baseline.WEntry) bool {
		same := func(a, b baseline.WEntry) bool { return a.Dist == b.Dist && a.Src == b.Src }
		for _, u := range f.UNode {
			if !slices.EqualFunc(list(u), want[u], same) {
				return false
			}
		}
		correctAt = round
		return true
	}
	ex, err := baseline.ExactDetect(f.G, exact, congest.Config{})
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "exact detection: first-correct round=%d  budget=%d  (σ·h=%d)\n",
		correctAt, ex.Budget, *sigma**h)

	res, err := core.Run(f.G, core.Params{
		IsSource: isSource, H: *h + 1, Sigma: *sigma,
		Epsilon: *eps, CapMessages: true,
	}, congest.Config{Parallel: true})
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "PDE (ε=%.2f):    budget=%d rounds  active=%d  instances=%d  (additive in h+σ)\n",
		*eps, res.BudgetRounds, res.ActiveRounds, len(res.Instances))
	fmt.Fprintf(out, "scaling:         exact grows like σ·h; PDE like (h+σ)·log w_max — rerun with doubled h and σ to see the separation widen.\n")
	return nil
}

// pdeSweep sweeps (h, σ, ε) on one graph and prints the round budgets of
// Corollary 3.5 — or, with -messages, Lemma 3.4's per-node message counts.
func pdeSweep(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("pdesweep", flag.ContinueOnError)
	n := fs.Int("n", 100, "number of nodes")
	maxw := fs.Int64("maxw", 32, "maximum edge weight")
	seed := fs.Int64("seed", 1, "seed")
	messages := fs.Bool("messages", false, "sweep σ for the Lemma 3.4 message bound instead of rounds")
	if err := fs.Parse(args); err != nil {
		return usageError{err}
	}

	g := pde.RandomGraph(*n, 6.0/float64(*n), *maxw, *seed)
	src := make([]bool, g.N())
	for v := 0; v < g.N(); v += 4 {
		src[v] = true
	}
	sweep := func(h, sigma int, eps float64) (*core.Result, error) {
		return core.Run(g, core.Params{
			IsSource: src, H: h, Sigma: sigma, Epsilon: eps, CapMessages: true,
		}, congest.Config{Parallel: true})
	}
	if *messages {
		fmt.Fprintln(out, "σ | max broadcasts/node | (i_max+1)·σ(σ+1)/2 bound")
		for _, sigma := range []int{2, 4, 8, 16, 32} {
			res, err := sweep(*n, sigma, 0.5)
			if err != nil {
				return err
			}
			bound := int64(len(res.Instances)) * int64(sigma) * int64(sigma+1) / 2
			fmt.Fprintf(out, "%d | %d | %d\n", sigma, res.MaxBroadcasts(), bound)
		}
		return nil
	}
	fmt.Fprintln(out, "h | σ | ε | budget rounds | active rounds")
	for _, eps := range []float64{0.25, 0.5, 1} {
		for _, hs := range []int{10, 20, 40} {
			res, err := sweep(hs, hs, eps)
			if err != nil {
				return err
			}
			fmt.Fprintf(out, "%d | %d | %.2f | %d | %d\n", hs, hs, eps, res.BudgetRounds, res.ActiveRounds)
		}
	}
	return nil
}
