package congest

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"time"

	"pde/internal/graph"
)

// topologies used by TestInboxOrder.
var topologies = []struct {
	name string
	make func(rng *rand.Rand) *graph.Graph
}{
	{"random", func(rng *rand.Rand) *graph.Graph { return graph.RandomConnected(60+rng.Intn(40), 0.08, 10, rng) }},
	{"grid", func(rng *rand.Rand) *graph.Graph { return graph.Grid(8+rng.Intn(4), 8, 10, rng) }},
	{"ring", func(rng *rand.Rand) *graph.Graph { return graph.Ring(60+rng.Intn(40), 10, rng) }},
	{"star", func(rng *rand.Rand) *graph.Graph { return graph.Star(60+rng.Intn(40), 10, rng) }},
	{"tree", func(rng *rand.Rand) *graph.Graph { return graph.RandomTree(60+rng.Intn(40), 10, rng) }},
	{"internet", func(rng *rand.Rand) *graph.Graph { return graph.Internet(60+rng.Intn(40), 20, rng) }},
}

// multiFlood: several origins flood distinct tokens; nodes record the
// first round they heard each token and re-broadcast it once. This
// exercises multi-message inboxes, port accounting and the active-set
// machinery under randomized topologies.
type multiFlood struct {
	tokens map[int64]int // token -> round first heard
	mine   []int64
}

func (p *multiFlood) Init(ctx *Ctx) {
	p.tokens = make(map[int64]int)
	for i, tok := range p.mine {
		p.tokens[tok] = 0
		if i == 0 {
			ctx.Broadcast(ValueMsg{Value: tok})
		}
	}
	if len(p.mine) > 1 {
		ctx.WakeNext()
	}
}

func (p *multiFlood) Round(ctx *Ctx) {
	sent := false
	// Forward one of our own pending tokens per round (bandwidth!).
	for i, tok := range p.mine {
		if i == 0 || tok == -1 {
			continue
		}
		ctx.Broadcast(ValueMsg{Value: tok})
		p.mine[i] = -1
		sent = true
		ctx.WakeNext()
		break
	}
	for _, in := range ctx.In() {
		tok := in.Msg.(ValueMsg).Value
		if _, ok := p.tokens[tok]; !ok {
			p.tokens[tok] = ctx.Round()
			if !sent {
				ctx.Broadcast(ValueMsg{Value: tok})
				sent = true
			} else {
				// Defer: re-queue as one of ours.
				p.mine = append(p.mine, tok)
				ctx.WakeNext()
			}
		}
	}
}

// inboxChecker runs a multiFlood and records the first round in which
// its inbox is out of sender order or names a port that does not lead
// back to the sender.
type inboxChecker struct {
	multiFlood
	bad string
}

func (p *inboxChecker) Round(ctx *Ctx) {
	in := ctx.In()
	for i, m := range in {
		if p.bad != "" {
			break
		}
		if i > 0 && in[i-1].From >= m.From {
			p.bad = fmt.Sprintf("round %d: From %d after %d", ctx.Round(), m.From, in[i-1].From)
		} else if ctx.Neighbors()[m.Port].To != m.From {
			p.bad = fmt.Sprintf("round %d: port %d leads to %d, not sender %d",
				ctx.Round(), m.Port, ctx.Neighbors()[m.Port].To, m.From)
		}
	}
	p.multiFlood.Round(ctx)
}

// TestInboxOrder pins the delivery order detection depends on (its Via
// tie-break and FIFO insert order): in every round every inbox is
// strictly ascending by sender, and each message's Port is the
// receiver's edge back to that sender.
func TestInboxOrder(t *testing.T) {
	for _, topo := range topologies {
		for seed := int64(1); seed <= 4; seed++ {
			rng := rand.New(rand.NewSource(seed))
			g := topo.make(rng)
			n := g.N()
			norigins := 1 + rng.Intn(5)
			procs := make([]Proc, n)
			states := make([]inboxChecker, n)
			for v := range states {
				if v < norigins {
					states[v].mine = []int64{int64(1000 + v), int64(2000 + v)}
				}
				procs[v] = &states[v]
			}
			met, err := Run(g, procs, Config{})
			if err != nil {
				t.Fatalf("%s/%d: %v", topo.name, seed, err)
			}
			if met.Messages == 0 {
				t.Fatalf("%s/%d: no messages delivered", topo.name, seed)
			}
			for v := range states {
				if states[v].bad != "" {
					t.Fatalf("%s/%d node %d: %s", topo.name, seed, v, states[v].bad)
				}
			}
		}
	}
}

// TestQuiescenceFastForward is the regression test for the worklist
// engine's fast path: once the network quiesces, the remaining budget
// must be skipped in O(1), not scanned round by round. A 50-node flood
// quiesces after ~n rounds; with a 5-million-round budget the run must
// still return almost instantly and report the full budget.
func TestQuiescenceFastForward(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	g := graph.Path(50, 1, rng)
	procs, _ := newFlood(50, 0)
	start := time.Now()
	met, err := Run(g, procs, Config{MaxRounds: 5_000_000})
	if err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("run took %v; quiescent rounds were not fast-forwarded", elapsed)
	}
	if met.ActiveRounds < 49 || met.ActiveRounds > 51 {
		t.Fatalf("ActiveRounds=%d, want ~49 (flood depth of a 50-path)", met.ActiveRounds)
	}
	if met.BudgetRounds != 5_000_000 {
		t.Fatalf("BudgetRounds=%d, want the configured 5M budget", met.BudgetRounds)
	}
}

// TestWorklistSkipsIdleNodes checks that a quiet node never takes a step:
// when the flood starts at a leaf of a star, every node is woken exactly
// once by it, so each broadcasts once and the run delivers one message per
// port of each broadcast.
func TestWorklistSkipsIdleNodes(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	g := graph.Star(64, 1, rng)
	procs, states := newFlood(64, 1) // origin is a leaf
	met, err := Run(g, procs, Config{})
	if err != nil {
		t.Fatal(err)
	}
	for v, s := range states {
		if s.heard < 0 {
			t.Fatalf("node %d never heard the token", v)
		}
	}
	// Leaf origin sends 1 (to center), center broadcasts to 63 leaves,
	// every other leaf echoes 1 back to the center.
	if met.Messages != 1+63+62 {
		t.Fatalf("Messages=%d, want 126 (origin 1, center 63, 62 echoes)", met.Messages)
	}
	// Round 1: center hears. Round 2: leaves hear and echo. Round 3: the
	// center consumes the echoes (it received, so it must step once more).
	if met.ActiveRounds != 3 {
		t.Fatalf("ActiveRounds=%d, want 3 (leaf->center, center->leaves, echo drain)", met.ActiveRounds)
	}
}

func TestNilSendIsFault(t *testing.T) {
	g := graph.NewBuilder(2).AddEdge(0, 1, 1).MustBuild()
	procs := []Proc{&nilSender{}, &nilSender{}}
	_, err := Run(g, procs, Config{})
	if err == nil || !strings.Contains(err.Error(), "nil message") {
		t.Fatalf("err=%v, want nil-message fault", err)
	}
}

type nilSender struct{}

func (p *nilSender) Init(ctx *Ctx) { ctx.Send(0, nil) }
func (p *nilSender) Round(*Ctx)    {}

// TestParallelBandwidthFaultIsDeterministic: with several simultaneous
// violations, deliver surfaces the violation of the smallest sender id,
// whatever pool width the config names.
func TestParallelBandwidthFaultIsDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	g := graph.RandomConnected(80, 0.1, 10, rng)
	procs := make([]Proc, 80)
	for v := range procs {
		if v >= 7 {
			procs[v] = &hugeSender{}
		} else {
			procs[v] = &badProc{} // no mode: sends nothing
		}
	}
	_, err := Run(g, procs, Config{Parallel: true, Workers: 5})
	want := fmt.Sprintf("congest: node 7 sent %d-bit message, bandwidth B=%d", hugeMsg{}.Bits(), defaultB(80))
	if err == nil || err.Error() != want {
		t.Fatalf("err=%v, want %q", err, want)
	}
}

type hugeSender struct{}

func (p *hugeSender) Init(ctx *Ctx) { ctx.Broadcast(hugeMsg{}) }
func (p *hugeSender) Round(*Ctx)    {}

func TestConfigSub(t *testing.T) {
	cfg := Config{
		B:         17,
		MaxRounds: 99,
		Parallel:  true,
		Workers:   3,
		Observer:  func(int) bool { return true },
	}
	sub := cfg.Sub()
	if sub.B != 17 || !sub.Parallel || sub.Workers != 3 {
		t.Fatalf("Sub must keep engine knobs, got %+v", sub)
	}
	if sub.MaxRounds != 0 || sub.Observer != nil {
		t.Fatalf("Sub must strip MaxRounds and Observer, got %+v", sub)
	}
}

// delivery is one message as a recorder was handed it.
type delivery struct {
	round, from, port int
	value             int64
}

// recorder is a multiFlood that logs every message it is handed, asks to
// step once more after every round it received in (so nodes step with an
// empty inbox right after a full one) and, at faultRound, makes nodes
// from faultFrom on send twice on port 0.
type recorder struct {
	multiFlood
	got        []delivery
	faultRound int
	faultFrom  int
}

func (p *recorder) Round(ctx *Ctx) {
	for _, in := range ctx.In() {
		p.got = append(p.got, delivery{ctx.Round(), in.From, in.Port, in.Msg.(ValueMsg).Value})
	}
	if len(ctx.In()) > 0 {
		ctx.WakeNext()
	}
	p.multiFlood.Round(ctx)
	if ctx.Round() == p.faultRound && ctx.Node() >= p.faultFrom && ctx.Degree() > 0 {
		ctx.Send(0, ValueMsg{Value: 1})
		ctx.Send(0, ValueMsg{Value: 2})
	}
}

// recordRun runs a seeded multi-origin flood on eng and returns the
// metrics, every node's deliveries and the run's error.
func recordRun(eng *Engine, g *graph.Graph, seed int64, faultRound int) (*Metrics, [][]delivery, error) {
	rng := rand.New(rand.NewSource(seed))
	states := make([]recorder, g.N())
	procs := make([]Proc, g.N())
	for v := range states {
		if rng.Intn(8) == 0 {
			states[v].mine = []int64{int64(1000 + v), int64(2000 + v)}
		}
		states[v].faultRound, states[v].faultFrom = faultRound, g.N()/2
		procs[v] = &states[v]
	}
	met, err := eng.Run(g, procs, Config{MaxRounds: 4 * g.N()})
	got := make([][]delivery, g.N())
	for v := range states {
		got[v] = states[v].got
	}
	return met, got, err
}

// TestEngineReuse: one Engine runs graphs of different n and m in turn —
// smaller after larger, and again after a run that faulted mid-round with
// sends left in its slots — and every run's metrics and inboxes equal a
// fresh engine's, and every delivered message is handed over exactly once.
// Stale receive epochs, send slots or inbox counts would each show as a
// delivery that did not happen or a message twice.
func TestEngineReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	graphs := []*graph.Graph{
		graph.RandomConnected(90, 0.08, 10, rng),
		graph.Ring(40, 10, rng),
		graph.Grid(10, 12, 10, rng),
		graph.Star(30, 10, rng),
		graph.RandomConnected(90, 0.08, 10, rng),
	}
	var eng Engine
	check := func(step int, g *graph.Graph) {
		t.Helper()
		want, wantGot, err := recordRun(new(Engine), g, int64(step), 0)
		if err != nil {
			t.Fatal(err)
		}
		met, got, err := recordRun(&eng, g, int64(step), 0)
		if err != nil {
			t.Fatalf("run %d: %v", step, err)
		}
		if !reflect.DeepEqual(met, want) {
			t.Fatalf("run %d: metrics %+v, fresh engine %+v", step, met, want)
		}
		if !reflect.DeepEqual(got, wantGot) {
			t.Fatalf("run %d: deliveries differ from a fresh engine's", step)
		}
		handed := 0
		for _, d := range got {
			handed += len(d)
		}
		if met.ActiveRounds >= met.BudgetRounds || int64(handed) != met.Messages {
			t.Fatalf("run %d: %d messages delivered, %d handed to Round, %d of %d rounds active", step, met.Messages, handed, met.ActiveRounds, met.BudgetRounds)
		}
	}
	for i, g := range graphs {
		check(i, g)
	}
	for i, g := range graphs {
		if _, _, err := recordRun(&eng, g, int64(i), 3); err == nil || !strings.Contains(err.Error(), "sent twice on port") {
			t.Fatalf("faulting run on graph %d: err=%v", i, err)
		}
		check(i, g)
		check(i, graphs[(i+1)%len(graphs)])
	}
}

// idleTail is a flood from node 0 whose nodes each wake once more after
// they first hear the token, so the run has a last active round the
// budget can be cut at.
type idleTail struct{ floodProc }

func (p *idleTail) Round(ctx *Ctx) {
	fresh := p.heard < 0 && len(ctx.In()) > 0
	p.floodProc.Round(ctx)
	if fresh {
		ctx.WakeNext()
	}
}

// TestIdleBudgetIsFree: rounds after the network goes quiet are skipped,
// not executed. A run with eight times the budget it needs reports the
// same metrics, apart from the budget, and allocates as much as one given
// exactly its last active round.
func TestIdleBudgetIsFree(t *testing.T) {
	g := graph.Grid(12, 12, 10, rand.New(rand.NewSource(22)))
	var eng Engine
	run := func(budget int) *Metrics {
		procs := make([]Proc, g.N())
		states := make([]idleTail, g.N())
		for v := range states {
			states[v].origin = v == 0
			procs[v] = &states[v]
		}
		met, err := eng.Run(g, procs, Config{MaxRounds: budget})
		if err != nil {
			t.Fatal(err)
		}
		return met
	}
	last := run(0).ActiveRounds
	tight, loose := *run(last), *run(8 * last)
	if tight.BudgetRounds != last || loose.BudgetRounds != 8*last {
		t.Fatalf("budgets %d and %d, want %d and %d", tight.BudgetRounds, loose.BudgetRounds, last, 8*last)
	}
	loose.BudgetRounds = tight.BudgetRounds
	if !reflect.DeepEqual(tight, loose) {
		t.Fatalf("an idle budget changed the metrics: %+v, then %+v", tight, loose)
	}
	tightAllocs := testing.AllocsPerRun(5, func() { run(last) })
	looseAllocs := testing.AllocsPerRun(5, func() { run(8 * last) })
	if tightAllocs != looseAllocs {
		t.Fatalf("%.0f allocations with the budget it needs, %.0f with 8x", tightAllocs, looseAllocs)
	}
}

// TestAllocsPerRunEngine: a run on a warm Engine allocates its Metrics and
// nothing else, whatever the graph's size: no per-node or per-round state.
func TestAllocsPerRunEngine(t *testing.T) {
	g := graph.Grid(12, 12, 10, rand.New(rand.NewSource(23)))
	procs, _ := newFlood(g.N(), 0)
	var eng Engine
	run := func() {
		if _, err := eng.Run(g, procs, Config{}); err != nil {
			t.Fatal(err)
		}
	}
	run()
	if allocs := testing.AllocsPerRun(10, run); allocs != 1 {
		t.Fatalf("a warm Engine.Run allocates %.0f objects, want 1 (its Metrics)", allocs)
	}
}
