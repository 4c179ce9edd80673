package congest

import (
	"math/rand"
	"strings"
	"testing"

	"pde/internal/graph"
)

// floodProc is a tiny test algorithm: the origin broadcasts a token; every
// node re-broadcasts the first time it hears it, recording the round.
type floodProc struct {
	origin bool
	heard  int // round first heard (0 for origin, -1 never)
}

func (p *floodProc) Init(ctx *Ctx) {
	p.heard = -1
	if p.origin {
		p.heard = 0
		ctx.Broadcast(ValueMsg{Value: 1})
	}
}

func (p *floodProc) Round(ctx *Ctx) {
	if p.heard >= 0 || len(ctx.In()) == 0 {
		return
	}
	p.heard = ctx.Round()
	ctx.Broadcast(ValueMsg{Value: 1})
}

func newFlood(n, origin int) ([]Proc, []*floodProc) {
	procs := make([]Proc, n)
	states := make([]*floodProc, n)
	for v := 0; v < n; v++ {
		states[v] = &floodProc{origin: v == origin}
		procs[v] = states[v]
	}
	return procs, states
}

func TestFloodReachesAllAtBFSDistance(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	g := graph.RandomConnected(60, 0.06, 10, rng)
	procs, states := newFlood(60, 0)
	met, err := Run(g, procs, Config{})
	if err != nil {
		t.Fatal(err)
	}
	bfs := graph.BFS(g, 0)
	for v, s := range states {
		if int32(s.heard) != bfs[v] {
			t.Fatalf("node %d heard at round %d, BFS distance %d", v, s.heard, bfs[v])
		}
	}
	if !met.Quiesced {
		t.Fatal("flood should quiesce")
	}
	if met.ActiveRounds < 1 {
		t.Fatal("flood should take at least one round")
	}
}

func TestSequentialAndParallelAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	g := graph.RandomConnected(80, 0.05, 10, rng)
	run := func(parallel bool) ([]int, *Metrics) {
		procs, states := newFlood(80, 3)
		met, err := Run(g, procs, Config{Parallel: parallel})
		if err != nil {
			t.Fatal(err)
		}
		out := make([]int, len(states))
		for v, s := range states {
			out[v] = s.heard
		}
		return out, met
	}
	seqHeard, seqMet := run(false)
	parHeard, parMet := run(true)
	for v := range seqHeard {
		if seqHeard[v] != parHeard[v] {
			t.Fatalf("node %d: sequential heard %d, parallel heard %d", v, seqHeard[v], parHeard[v])
		}
	}
	if seqMet.Messages != parMet.Messages || seqMet.ActiveRounds != parMet.ActiveRounds {
		t.Fatalf("metrics diverge: seq %+v par %+v", seqMet, parMet)
	}
}

func TestRunRejectsWrongProcCount(t *testing.T) {
	g := graph.NewBuilder(3).AddEdge(0, 1, 1).AddEdge(1, 2, 1).MustBuild()
	if _, err := Run(g, make([]Proc, 2), Config{}); err == nil {
		t.Fatal("expected proc-count error")
	}
}

type badProc struct{ mode string }

func (p *badProc) Init(ctx *Ctx) {
	switch p.mode {
	case "twice":
		ctx.Send(0, ValueMsg{Value: 1})
		ctx.Send(0, ValueMsg{Value: 2})
	case "badport":
		ctx.Send(99, ValueMsg{Value: 1})
	case "huge":
		ctx.Send(0, hugeMsg{})
	}
}
func (p *badProc) Round(*Ctx) {}

type hugeMsg struct{}

func (hugeMsg) Bits() int { return 1 << 20 }

func TestBandwidthViolationsAreErrors(t *testing.T) {
	g := graph.NewBuilder(2).AddEdge(0, 1, 1).MustBuild()
	for _, mode := range []string{"twice", "badport", "huge"} {
		t.Run(mode, func(t *testing.T) {
			procs := []Proc{&badProc{mode: mode}, &badProc{}}
			_, err := Run(g, procs, Config{})
			if err == nil {
				t.Fatal("expected bandwidth/port violation error")
			}
		})
	}
}

func TestMaxRoundsBudgetStopsEarly(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := graph.Path(50, 1, rng)
	procs, states := newFlood(50, 0)
	met, err := Run(g, procs, Config{MaxRounds: 5})
	if err != nil {
		t.Fatal(err)
	}
	if met.ActiveRounds > 5 {
		t.Fatalf("ActiveRounds=%d exceeds budget", met.ActiveRounds)
	}
	if met.BudgetRounds != 5 {
		t.Fatalf("BudgetRounds=%d, want 5", met.BudgetRounds)
	}
	// Flood should have reached exactly nodes within 5 hops.
	for v, s := range states {
		want := v <= 5
		if (s.heard >= 0) != want {
			t.Fatalf("node %d heard=%v, want reached=%v", v, s.heard >= 0, want)
		}
	}
}

func TestObserverStopsRun(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	g := graph.Path(50, 1, rng)
	procs, _ := newFlood(50, 0)
	met, err := Run(g, procs, Config{Observer: func(r int) bool { return r == 3 }})
	if err != nil {
		t.Fatal(err)
	}
	if !met.Stopped || met.ActiveRounds != 3 {
		t.Fatalf("met=%+v, want stopped at round 3", met)
	}
}

func TestBroadcastCountsOncePerCall(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g := graph.Star(10, 1, rng)
	procs, _ := newFlood(10, 0)
	met, err := Run(g, procs, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if met.Broadcasts[0] != 1 {
		t.Fatalf("center broadcasts = %d, want 1", met.Broadcasts[0])
	}
	if met.Sends[0] != 9 {
		t.Fatalf("center sends = %d, want 9", met.Sends[0])
	}
	var total int64
	for _, b := range met.Broadcasts {
		total += b
	}
	if total != 10 {
		t.Fatalf("total broadcasts = %d, want 10", total)
	}
	if met.MaxBroadcasts() != 1 {
		t.Fatalf("max broadcasts = %d, want 1", met.MaxBroadcasts())
	}
}

func TestMessagesAndBitsAccounting(t *testing.T) {
	g := graph.NewBuilder(2).AddEdge(0, 1, 1).MustBuild()
	procs, _ := newFlood(2, 0)
	met, err := Run(g, procs, Config{})
	if err != nil {
		t.Fatal(err)
	}
	// Origin sends 1 message; node 1 echoes 1 back.
	if met.Messages != 2 {
		t.Fatalf("messages = %d, want 2", met.Messages)
	}
	wantBits := int64(2 * ValueMsg{Value: 1}.Bits())
	if met.MessageBits != wantBits {
		t.Fatalf("bits = %d, want %d", met.MessageBits, wantBits)
	}
}

func TestBFSTree(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	g := graph.RandomConnected(70, 0.05, 10, rng)
	tree, met, err := BuildBFSTree(g, 7, Config{})
	if err != nil {
		t.Fatal(err)
	}
	bfs := graph.BFS(g, 7)
	for v := 0; v < g.N(); v++ {
		if tree.Depth[v] != bfs[v] {
			t.Fatalf("node %d depth %d, BFS %d", v, tree.Depth[v], bfs[v])
		}
		if v == 7 {
			if tree.Parent[v] != -1 {
				t.Fatal("root must have no parent")
			}
			continue
		}
		p := int(tree.Parent[v])
		if _, ok := g.EdgeBetween(p, v); !ok {
			t.Fatalf("tree edge {%d,%d} not in graph", p, v)
		}
		if tree.Depth[v] != tree.Depth[p]+1 {
			t.Fatalf("node %d depth %d, parent depth %d", v, tree.Depth[v], tree.Depth[p])
		}
	}
	if met.ActiveRounds > tree.Height+1 {
		t.Fatalf("BFS took %d rounds for height %d", met.ActiveRounds, tree.Height)
	}
	// Children arrays are consistent with parents.
	count := 0
	for v := range tree.Children {
		count += len(tree.Children[v])
	}
	if count != g.N()-1 {
		t.Fatalf("children count %d, want %d", count, g.N()-1)
	}
}

func TestBFSTreeUnreachableNodeFails(t *testing.T) {
	g := graph.NewBuilder(3).AddEdge(0, 1, 1).MustBuild()
	if _, _, err := BuildBFSTree(g, 0, Config{}); err == nil ||
		!strings.Contains(err.Error(), "unreachable") {
		t.Fatalf("err=%v, want unreachable error", err)
	}
}

func TestBFSTreeBadRoot(t *testing.T) {
	g := graph.NewBuilder(2).AddEdge(0, 1, 1).MustBuild()
	if _, _, err := BuildBFSTree(g, 5, Config{}); err == nil {
		t.Fatal("expected out-of-range root error")
	}
}

func TestAggregateMaxAndSum(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g := graph.RandomConnected(40, 0.08, 10, rng)
	tree, _, err := BuildBFSTree(g, 0, Config{})
	if err != nil {
		t.Fatal(err)
	}
	vals := make([]int64, 40)
	var wantSum int64
	var wantMax int64
	for v := range vals {
		vals[v] = int64((v*13)%29 + 1)
		wantSum += vals[v]
		if vals[v] > wantMax {
			wantMax = vals[v]
		}
	}
	gotMax, met, err := Aggregate(g, tree, vals, func(a, b int64) int64 { return max(a, b) }, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if gotMax != wantMax {
		t.Fatalf("max = %d, want %d", gotMax, wantMax)
	}
	if met.ActiveRounds > 2*(tree.Height+1)+2 {
		t.Fatalf("aggregate took %d rounds for height %d", met.ActiveRounds, tree.Height)
	}
	gotSum, _, err := Aggregate(g, tree, vals, func(a, b int64) int64 { return a + b }, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if gotSum != wantSum {
		t.Fatalf("sum = %d, want %d", gotSum, wantSum)
	}
}

func TestAggregateSingleNode(t *testing.T) {
	g := graph.NewBuilder(1).MustBuild()
	tree := &Tree{Root: 0, Parent: []int32{-1}, Depth: []int32{0}, Children: make([][]int32, 1)}
	got, _, err := Aggregate(g, tree, []int64{42}, func(a, b int64) int64 { return a + b }, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if got != 42 {
		t.Fatalf("got %d, want 42", got)
	}
}

func TestPipelinedBroadcast(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	g := graph.RandomConnected(50, 0.06, 10, rng)
	tree, _, err := BuildBFSTree(g, 0, Config{})
	if err != nil {
		t.Fatal(err)
	}
	items := make([]int64, 30)
	for i := range items {
		items[i] = int64(100 + i)
	}
	got, met, err := PipelinedBroadcast(g, tree, items, Config{})
	if err != nil {
		t.Fatal(err)
	}
	for v := range got {
		if len(got[v]) != len(items) {
			t.Fatalf("node %d received %d items", v, len(got[v]))
		}
		for i := range items {
			if got[v][i] != items[i] {
				t.Fatalf("node %d item %d = %d, want %d (pipelining must preserve order)", v, i, got[v][i], items[i])
			}
		}
	}
	// The pipelined bound: K + height rounds.
	if met.ActiveRounds > len(items)+tree.Height+2 {
		t.Fatalf("broadcast took %d rounds; bound is %d", met.ActiveRounds, len(items)+tree.Height+2)
	}
}

func TestPipelinedBroadcastEmpty(t *testing.T) {
	g := graph.NewBuilder(2).AddEdge(0, 1, 1).MustBuild()
	tree, _, err := BuildBFSTree(g, 0, Config{})
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := PipelinedBroadcast(g, tree, nil, Config{})
	if err != nil {
		t.Fatal(err)
	}
	for v := range got {
		if len(got[v]) != 0 {
			t.Fatalf("node %d received %d items, want 0", v, len(got[v]))
		}
	}
}

func TestDefaultB(t *testing.T) {
	if DefaultB(0) < 32 {
		t.Fatal("DefaultB must be at least the 32-bit header")
	}
	if DefaultB(1000) <= DefaultB(10) {
		t.Fatal("DefaultB must grow with n")
	}
}

func TestValueMsgBits(t *testing.T) {
	if b := (ValueMsg{Value: 0}).Bits(); b != 8 {
		t.Fatalf("zero value bits = %d, want 8", b)
	}
	if b := (ValueMsg{Value: 1023}).Bits(); b != 18 {
		t.Fatalf("1023 bits = %d, want 18", b)
	}
}
