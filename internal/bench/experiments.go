package bench

import (
	"math"
	"math/rand"
	"sort"

	"pde/internal/baseline"
	"pde/internal/compact"
	"pde/internal/congest"
	"pde/internal/core"
	"pde/internal/detection"
	"pde/internal/graph"
	"pde/internal/rtc"
	"pde/internal/spanner"
)

// Scale selects experiment sizes.
type Scale int

const (
	// Quick is for unit tests and Go benchmarks.
	Quick Scale = iota
	// Full is the EXPERIMENTS.md configuration.
	Full
)

// maxStretch returns the worst estimate/exact ratio over all output
// entries of a PDE result.
func maxStretch(g *graph.Graph, res *core.Result, ap *graph.APSP) float64 {
	worst := 1.0
	for v := range res.Lists {
		for _, e := range res.Lists[v] {
			exact := ap.Dist(v, int(e.Src))
			if exact <= 0 {
				continue
			}
			if s := e.Dist / float64(exact); s > worst {
				worst = s
			}
		}
	}
	return worst
}

// E1APSP reproduces Theorem 4.1: deterministic (1+ε)-APSP round scaling
// and stretch.
func E1APSP(scale Scale) *Table {
	ns := []int{30, 45, 60}
	if scale == Full {
		ns = []int{40, 60, 80, 100}
	}
	epss := []float64{0.5, 1.0}
	t := &Table{
		ID:    "E1",
		Title: "Deterministic (1+ε)-approximate APSP",
		Ref:   "Theorem 4.1: O(ε⁻² n log n) rounds, stretch ≤ 1+ε, deterministic",
		Header: []string{"n", "ε", "budget rounds", "active rounds",
			"rounds / (ε⁻²·n·log₂n)", "max stretch", "1+ε"},
	}
	for _, n := range ns {
		for _, eps := range epss {
			g := graph.RandomConnected(n, 6.0/float64(n), 32, rand.New(rand.NewSource(int64(n))))
			ap := graph.AllPairs(g)
			res, err := core.Run(g, core.APSPParams(n, eps), congest.Config{Parallel: true})
			if err != nil {
				panic(err)
			}
			formula := float64(n) * log2(float64(n)) / (eps * eps)
			t.Rows = append(t.Rows, []string{
				d(n), f2(eps), d(res.BudgetRounds), d(res.ActiveRounds),
				f3(float64(res.BudgetRounds) / formula),
				f3(maxStretch(g, res, ap)), f2(1 + eps),
			})
		}
	}
	t.Notes = append(t.Notes,
		"The normalized column is flat across n: measured rounds scale as the theorem's ε⁻²·n·log n.",
		"Max stretch never exceeds 1+ε (the bound is exact, not asymptotic).",
		"The algorithm is deterministic: identical runs produce identical rounds and messages (tested).")
	return t
}

// E1Baselines compares Theorem 4.1 against the exact baselines and the
// randomized scheduling it derandomizes.
func E1Baselines(scale Scale) *Table {
	n := 40
	if scale == Full {
		n = 70
	}
	eps := 0.5
	g := graph.RandomConnected(n, 6.0/float64(n), 32, rand.New(rand.NewSource(7)))
	dHop := graph.HopDiameter(g)
	t := &Table{
		ID:    "E1b",
		Title: "APSP algorithm comparison",
		Ref:   "§1 state of the art; Theorem 4.1 vs Bellman–Ford, OSPF-style flooding, Nanongkai-style randomized",
		Header: []string{"algorithm", "rounds", "messages", "result",
			"per-node table (words)"},
	}
	res, err := core.Run(g, core.APSPParams(n, eps), congest.Config{Parallel: true})
	if err != nil {
		panic(err)
	}
	tableWords := res.TableWords(0)
	t.Rows = append(t.Rows, []string{"PDE APSP (ε=0.5, deterministic)",
		d(res.BudgetRounds), d64(res.Messages), "(1+ε)-approximate", d(tableWords)})

	rd, err := baseline.RandomDelayPDE(g, core.APSPParams(n, eps), 0, rand.New(rand.NewSource(1)), congest.Config{Parallel: true})
	if err != nil {
		panic(err)
	}
	t.Rows = append(t.Rows, []string{"random-delay PDE (Nanongkai-style, 1 seed)",
		d(rd.BudgetRounds), d64(rd.Messages), "(1+ε)-approximate w.h.p.", "-"})

	bf, err := baseline.BellmanFordAPSP(g, congest.Config{Parallel: true})
	if err != nil {
		panic(err)
	}
	t.Rows = append(t.Rows, []string{"pipelined Bellman–Ford",
		d(bf.Metrics.ActiveRounds), d64(bf.Metrics.Messages), "exact", d(3 * n)})

	fl, err := baseline.FloodingAPSP(g, congest.Config{Parallel: true})
	if err != nil {
		panic(err)
	}
	t.Rows = append(t.Rows, []string{"topology flooding + local Dijkstra",
		d(fl.Metrics.ActiveRounds), d64(fl.Metrics.Messages), "exact", d(fl.TableWords)})
	t.Notes = append(t.Notes,
		"Graph: connected G(n,p), n = "+d(n)+", hop diameter "+d(dHop)+".",
		"PDE rounds are the deterministic budget the theorem guarantees; Bellman–Ford and flooding run to quiescence.",
		"The derandomization removes the w.h.p. qualifier at no asymptotic cost (same reduction, lexicographic scheduling).")
	return t
}

// E2PDESweep reproduces Corollary 3.5: rounds linear in h+σ.
func E2PDESweep(scale Scale) *Table {
	n := 80
	if scale == Full {
		n = 120
	}
	g := graph.RandomConnected(n, 6.0/float64(n), 32, rand.New(rand.NewSource(11)))
	src := make([]bool, n)
	for v := 0; v < n; v += 4 {
		src[v] = true
	}
	eps := 0.5
	t := &Table{
		ID:    "E2",
		Title: "PDE round complexity is additive in h and σ",
		Ref:   "Corollary 3.5: O((h+σ)·ε⁻²·log n + D) rounds",
		Header: []string{"h", "σ", "budget rounds", "active rounds",
			"rounds / ((h+σ)·ε⁻²·log₂n)"},
	}
	for _, hs := range [][2]int{{5, 5}, {10, 10}, {20, 20}, {40, 40}} {
		h, sigma := hs[0], hs[1]
		res, err := core.Run(g, core.Params{
			IsSource: src, H: h, Sigma: sigma, Epsilon: eps, CapMessages: true,
		}, congest.Config{Parallel: true})
		if err != nil {
			panic(err)
		}
		formula := float64(h+sigma) * log2(float64(n)) / (eps * eps)
		t.Rows = append(t.Rows, []string{
			d(h), d(sigma), d(res.BudgetRounds), d(res.ActiveRounds),
			f3(float64(res.BudgetRounds) / formula),
		})
	}
	t.Notes = append(t.Notes,
		"Doubling h and σ doubles the round budget (constant normalized column): rounds are additive in h+σ, not multiplicative like the exact σ·h algorithm (see E3).")
	return t
}

// E4Messages reproduces Lemma 3.4 / Corollary 3.5's per-node message
// bound: broadcasts grow quadratically in σ while rounds stay linear.
func E4Messages(scale Scale) *Table {
	n := 80
	if scale == Full {
		n = 120
	}
	g := graph.RandomConnected(n, 6.0/float64(n), 24, rand.New(rand.NewSource(13)))
	src := make([]bool, n)
	for v := 0; v < n; v += 2 {
		src[v] = true
	}
	// Weighted virtual instance (G_0): pairs arrive over non-shortest
	// paths first and improve later, so re-announcements occur and the
	// cap becomes meaningful (on unweighted graphs each node announces
	// each of its top-σ pairs exactly once).
	lengths := make([]int32, g.M())
	g.Edges(func(_, _ int, w graph.Weight, id int32) { lengths[id] = int32(w) })
	t := &Table{
		ID:    "E4",
		Title: "Per-node broadcasts under the Lemma 3.4 cap",
		Ref:   "Lemma 3.4: ≤ σ(σ+1)/2 broadcasts per node per instance",
		Header: []string{"σ", "max broadcasts/node", "cap σ(σ+1)/2",
			"mean broadcasts/node", "budget rounds"},
	}
	for _, sigma := range []int{2, 4, 8, 16} {
		res, err := detection.Run(g, detection.Params{
			IsSource: src, H: 4 * n, Sigma: sigma, Lengths: lengths, CapMessages: true,
		}, congest.Config{Parallel: true})
		if err != nil {
			panic(err)
		}
		var maxB, sum int64
		for _, b := range res.SelfEmits {
			sum += b
			if b > maxB {
				maxB = b
			}
		}
		t.Rows = append(t.Rows, []string{
			d(sigma), d64(maxB), d(sigma * (sigma + 1) / 2),
			f1(float64(sum) / float64(n)), d(res.Budget),
		})
	}
	t.Notes = append(t.Notes,
		"Per-node broadcasts grow super-linearly in σ (improved pairs are re-announced) but never cross the σ(σ+1)/2 cap; the round budget grows only linearly in σ.")
	return t
}

// E3Figure1 reproduces Figure 1: exact detection needs ~σ·h rounds on the
// gadget while PDE's budget is additive.
func E3Figure1(scale Scale) *Table {
	configs := [][2]int{{4, 4}, {6, 6}, {8, 8}}
	if scale == Full {
		configs = [][2]int{{4, 4}, {6, 6}, {8, 8}, {10, 10}, {6, 18}}
	}
	t := &Table{
		ID:    "E3",
		Title: "Lower-bound gadget: exact σ·h vs additive PDE",
		Ref:   "Figure 1: (S,h+1,σ)-detection needs Ω(hσ) rounds; §3 escapes via approximation",
		Header: []string{"h", "σ", "exact: first correct round", "σ·h",
			"exact budget", "PDE budget (ε=1)", "PDE/(h+σ)·log₂W"},
	}
	for _, cfg := range configs {
		h, sigma := cfg[0], cfg[1]
		f := graph.NewFigure1(h, sigma)
		isSource := make([]bool, f.G.N())
		for _, s := range f.Sources {
			isSource[s] = true
		}
		want := baseline.ExactBruteForce(f.G, baseline.ExactParams{IsSource: isSource, H: h + 1, Sigma: sigma})
		correctAt := -1
		probe := func(round int, list func(v int) []baseline.WEntry) bool {
			for _, u := range f.UNode {
				got := list(u)
				if len(got) != len(want[u]) {
					return false
				}
				for i := range got {
					if got[i].Dist != want[u][i].Dist || got[i].Src != want[u][i].Src {
						return false
					}
				}
			}
			correctAt = round
			return true
		}
		ex, err := baseline.ExactDetect(f.G, baseline.ExactParams{
			IsSource: isSource, H: h + 1, Sigma: sigma, Probe: probe,
		}, congest.Config{})
		if err != nil {
			panic(err)
		}
		pdeRes, err := core.Run(f.G, core.Params{
			IsSource: isSource, H: h + 1, Sigma: sigma, Epsilon: 1, CapMessages: true,
		}, congest.Config{Parallel: true})
		if err != nil {
			panic(err)
		}
		wmax := float64(f.G.MaxWeight())
		norm := float64(h+1+sigma) * (log2(wmax) + 1)
		t.Rows = append(t.Rows, []string{
			d(h), d(sigma), d(correctAt), d(sigma * h),
			d(ex.Budget), d(pdeRes.BudgetRounds), f2(float64(pdeRes.BudgetRounds) / norm),
		})
	}
	t.Notes = append(t.Notes,
		"Exact detection's first-correct round tracks σ·h (all σh pairs cross the bottleneck edge), confirming the Ω(hσ) bound.",
		"PDE's budget normalizes to a constant against (h+σ)·log w_max: additive, the paper's headline separation.",
		"At these gadget sizes the log-factor constants still favor exact detection in absolute terms; the *scaling* (multiplicative vs additive) is the claim, and the normalized columns expose it.")
	return t
}

// E5RTC reproduces Theorem 4.5: stretch, label size, rounds.
func E5RTC(scale Scale) *Table {
	type cfg struct {
		n, k int
	}
	cfgs := []cfg{{45, 2}, {45, 3}}
	if scale == Full {
		cfgs = []cfg{{60, 2}, {60, 3}, {90, 2}, {90, 3}}
	}
	t := &Table{
		ID:    "E5",
		Title: "Routing tables with relabeling (skeleton + spanner)",
		Ref:   "Theorem 4.5: stretch 6k−1+o(1), labels O(log n) bits, Õ(n^{1/2+1/(4k)}+D) rounds",
		Header: []string{"n", "k", "|S|", "rounds", "n^{1/2+1/(4k)}·log₂²n",
			"max stretch", "mean stretch", "6k−1", "max label bits", "4·log₂n"},
	}
	for _, c := range cfgs {
		g := graph.RandomConnected(c.n, 6.0/float64(c.n), 16, rand.New(rand.NewSource(int64(c.n))))
		ap := graph.AllPairs(g)
		sch, err := rtc.Build(g, rtc.Params{
			K: c.k, Epsilon: 0.25, SampleProb: 0.25, Seed: 3,
		}, congest.Config{Parallel: true})
		if err != nil {
			panic(err)
		}
		worst, sum, cnt := 0.0, 0.0, 0
		for v := 0; v < c.n; v += 2 {
			for w := 1; w < c.n; w += 2 {
				rt, err := sch.Route(v, sch.Labels[w])
				if err != nil {
					panic(err)
				}
				s := rt.Stretch(ap.Dist(v, w))
				sum += s
				cnt++
				if s > worst {
					worst = s
				}
			}
		}
		maxBits := 0
		for v := 0; v < c.n; v++ {
			if b := sch.LabelBits(v); b > maxBits {
				maxBits = b
			}
		}
		ln := log2(float64(c.n))
		formula := math.Pow(float64(c.n), 0.5+1.0/(4.0*float64(c.k))) * ln * ln
		t.Rows = append(t.Rows, []string{
			d(c.n), d(c.k), d(len(sch.Skeleton)), d(sch.Rounds.Total), f1(formula),
			f3(worst), f3(sum / float64(cnt)), d(6*c.k - 1),
			d(maxBits), f1(4 * ln),
		})
	}
	t.Notes = append(t.Notes,
		"Sampling probability fixed at 0.25 so the long-range (spanner) machinery is exercised at simulable n; the paper's p = n^{-1/2-1/(4k)} makes everything short-range below n ≈ 10⁴.",
		"Max stretch stays below 6k−1 with room to spare (the bound is worst-case; means are near 1).",
		"Labels are a small multiple of log₂ n bits, matching the O(log n) claim.")
	return t
}

// E7Trees reproduces Lemma 4.4's tree statistics.
func E7Trees(scale Scale) *Table {
	n := 50
	if scale == Full {
		n = 80
	}
	g := graph.RandomConnected(n, 6.0/float64(n), 16, rand.New(rand.NewSource(5)))
	sch, err := rtc.Build(g, rtc.Params{
		K: 2, Epsilon: 0.5, SampleProb: 0.25, Seed: 9,
	}, congest.Config{Parallel: true})
	if err != nil {
		panic(err)
	}
	depths, perNode := sch.TreeStats()
	sort.Ints(depths)
	maxTrees := 0
	for _, c := range perNode {
		if c > maxTrees {
			maxTrees = c
		}
	}
	hq := sch.A.HPrime
	t := &Table{
		ID:     "E7",
		Title:  "Routing-tree shape",
		Ref:    "Lemma 4.4: depth O(h·log n/ε); each node in O(log n) trees",
		Header: []string{"trees", "max depth", "median depth", "h'·(i_max+1) bound", "max trees/node", "log₂ n"},
	}
	t.Rows = append(t.Rows, []string{
		d(len(depths)), d(depths[len(depths)-1]), d(depths[len(depths)/2]),
		d(hq * (len(sch.B.Instances) + 1)), d(maxTrees), f1(log2(float64(n))),
	})
	t.Notes = append(t.Notes,
		"Tree depths sit far below the h'·(i_max+1) bound; per-node tree membership is logarithmic as Lemma 4.4 requires for the multiplexed labeling.")
	return t
}

// E6Compact reproduces §4.3: table size, label size, stretch per k, and
// the truncation strategies of Theorem 4.13 / Corollary 4.14.
func E6Compact(scale Scale) *Table {
	n := 40
	if scale == Full {
		n = 60
	}
	t := &Table{
		ID:    "E6",
		Title: "Compact routing hierarchy",
		Ref:   "Theorems 4.8/4.13, Corollary 4.14: stretch 4k−3+o(1), tables Õ(n^{1/k}), labels O(k log n)",
		Header: []string{"k", "strategy", "rounds", "max stretch", "4k−3",
			"mean table words", "n^{1/k}·log₂²n", "max label bits", "4k·log₂n"},
	}
	type cfg struct {
		k, l0 int
		strat compact.Strategy
		name  string
	}
	cfgs := []cfg{
		{2, 0, compact.StrategyNone, "direct"},
		{3, 0, compact.StrategyNone, "direct"},
		{3, 2, compact.StrategySimulate, "simulate l0=2"},
		{3, 2, compact.StrategyBroadcast, "broadcast l0=2"},
	}
	if scale == Full {
		cfgs = append(cfgs, cfg{4, 0, compact.StrategyNone, "direct"})
	}
	for _, c := range cfgs {
		g := graph.RandomConnected(n, 6.0/float64(n), 12, rand.New(rand.NewSource(21)))
		ap := graph.AllPairs(g)
		sch, err := compact.Build(g, compact.Params{
			K: c.k, Epsilon: 0.25, C: 1.5, L0: c.l0, Strategy: c.strat, Seed: 5,
		}, congest.Config{Parallel: true})
		if err != nil {
			panic(err)
		}
		worst := 0.0
		for v := 0; v < n; v += 2 {
			for w := 1; w < n; w += 2 {
				rt, err := sch.Route(v, sch.Labels[w])
				if err != nil {
					panic(err)
				}
				if s := rt.Stretch(ap.Dist(v, w)); s > worst {
					worst = s
				}
			}
		}
		sumWords, maxBits := 0, 0
		for v := 0; v < n; v++ {
			sumWords += sch.TableWords(v)
			if b := sch.LabelBits(v); b > maxBits {
				maxBits = b
			}
		}
		ln := log2(float64(n))
		t.Rows = append(t.Rows, []string{
			d(c.k), c.name, d(sch.Rounds.Total), f3(worst), d(4*c.k - 3),
			f1(float64(sumWords) / float64(n)),
			f1(math.Pow(float64(n), 1.0/float64(c.k)) * ln * ln),
			d(maxBits), f1(4 * float64(c.k) * ln),
		})
	}
	t.Notes = append(t.Notes,
		"Larger k shrinks tables (the n^{1/k} factor) at the cost of stretch — the Thorup–Zwick trade-off the paper distributes.",
		"Truncated strategies trade construction rounds differently (Theorem 4.13's simulation vs Corollary 4.14's broadcast) while producing equivalent tables; the shared skeleton state is reported separately by SharedWords.",
		"Stretch stays below 4k−3 throughout.")
	return t
}

// E8Spanner verifies the Baswana–Sen substrate.
func E8Spanner(scale Scale) *Table {
	n := 36
	if scale == Full {
		n = 60
	}
	t := &Table{
		ID:     "E8",
		Title:  "Baswana–Sen spanner substrate",
		Ref:    "§4.2 (uses [3]): stretch ≤ 2k−1, expected size O(k·n^{1+1/k})",
		Header: []string{"graph", "k", "edges kept", "of", "k·n^{1+1/k}", "max stretch", "2k−1"},
	}
	rng := rand.New(rand.NewSource(31))
	graphs := map[string]*graph.Graph{
		"clique": graph.Clique(n, 50, rng),
		"random": graph.RandomConnected(n, 0.4, 50, rng),
	}
	names := []string{"clique", "random"}
	for _, name := range names {
		g := graphs[name]
		for _, k := range []int{2, 3} {
			res, err := spanner.BaswanaSen(g, k, rand.New(rand.NewSource(3)))
			if err != nil {
				panic(err)
			}
			sub, err := res.Subgraph(n)
			if err != nil {
				panic(err)
			}
			apG := graph.AllPairs(g)
			apS := graph.AllPairs(sub)
			worst := 0.0
			for u := 0; u < n; u++ {
				for v := 0; v < n; v++ {
					if u == v {
						continue
					}
					s := float64(apS.Dist(u, v)) / float64(apG.Dist(u, v))
					if s > worst {
						worst = s
					}
				}
			}
			t.Rows = append(t.Rows, []string{
				name, d(k), d(len(res.Edges)), d(g.M()),
				f1(float64(k) * math.Pow(float64(n), 1+1.0/float64(k))),
				f3(worst), d(2*k - 1),
			})
		}
	}
	t.Notes = append(t.Notes,
		"Stretch never exceeds 2k−1 (deterministic guarantee); size is within the expected O(k·n^{1+1/k}).")
	return t
}

// E9Ablation compares announcement scheduling policies.
func E9Ablation(scale Scale) *Table {
	n := 60
	if scale == Full {
		n = 100
	}
	g := graph.RandomConnected(n, 6.0/float64(n), 16, rand.New(rand.NewSource(41)))
	src := make([]bool, n)
	for v := 0; v < n; v += 3 {
		src[v] = true
	}
	sigma := 6
	t := &Table{
		ID:    "E9",
		Title: "Scheduling ablation for weighted detection (instance G₀)",
		Ref:   "§3: lexicographic scheduling + Lemma 3.4 cap vs naive and randomized policies",
		Header: []string{"policy", "active rounds", "total messages",
			"max broadcasts/node", "correct"},
	}
	lengths := make([]int32, g.M())
	g.Edges(func(_, _ int, w graph.Weight, id int32) { lengths[id] = int32(w) })
	want := detection.BruteForce(g, detection.Params{IsSource: src, H: 64, Sigma: sigma, Lengths: lengths})
	check := func(res *detection.Result) string {
		for v := range want {
			if len(res.Lists[v]) != len(want[v]) {
				return "NO"
			}
			for i := range want[v] {
				if res.Lists[v][i].Dist != want[v][i].Dist || res.Lists[v][i].Src != want[v][i].Src {
					return "NO"
				}
			}
		}
		return "yes"
	}
	run := func(name string, p detection.Params) {
		res, err := detection.Run(g, p, congest.Config{Parallel: true})
		if err != nil {
			panic(err)
		}
		var maxB int64
		for _, b := range res.SelfEmits {
			if b > maxB {
				maxB = b
			}
		}
		t.Rows = append(t.Rows, []string{
			name, d(res.Metrics.ActiveRounds), d64(res.Metrics.Messages), d64(maxB), check(res),
		})
	}
	base := detection.Params{IsSource: src, H: 64, Sigma: sigma, Lengths: lengths}
	capped := base
	capped.CapMessages = true
	run("lexicographic + cap (paper)", capped)
	run("lexicographic, no cap", base)
	fifo := base
	fifo.Scheduling = detection.FIFO
	fifo.ExtraRounds = 6 * n
	run("FIFO flooding", fifo)
	prio := base
	prio.Scheduling = detection.Priority
	prio.ExtraRounds = 2 * n
	delays := make([]int32, n)
	rng := rand.New(rand.NewSource(43))
	for v := range delays {
		if src[v] {
			delays[v] = int32(rng.Intn(n / 2))
		}
	}
	prio.Delays = delays
	run("random delays (Nanongkai-style)", prio)
	t.Notes = append(t.Notes,
		"All policies reach the exact answer given enough rounds; only the paper's policy carries the deterministic h+σ round budget and the σ(σ+1)/2 message cap.",
		"Random delays defer work (higher active rounds) and their guarantees hold only w.h.p. over the seed.")
	return t
}

// Experiments lists every experiment in EXPERIMENTS.md order under the
// ID its table carries.
var Experiments = []struct {
	ID  string
	Run func(Scale) *Table
}{
	{"E1", E1APSP}, {"E1b", E1Baselines}, {"E2", E2PDESweep}, {"E3", E3Figure1}, {"E4", E4Messages},
	{"E5", E5RTC}, {"E6", E6Compact}, {"E7", E7Trees}, {"E8", E8Spanner}, {"E9", E9Ablation},
}
