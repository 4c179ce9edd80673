package core_test

import (
	"math/rand"
	"testing"
	"testing/quick"

	"pde/internal/congest"
	"pde/internal/core"
	"pde/internal/graph"
	"pde/internal/oracle"
)

// Corollary 3.5's routing properties, held on the one router there is:
// oracle.Route, core.Walk over the compiled next hops. They live beside
// the construction whose per-instance tables they are about.

const tol = 1e-6

func run(t *testing.T, g *graph.Graph, p core.Params) *core.Result {
	t.Helper()
	res, err := core.Run(g, p, congest.Config{})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestRoutingStretchAndTermination(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	n := 26
	g := graph.RandomConnected(n, 0.12, 25, rng)
	ap := graph.AllPairs(g)
	for _, eps := range []float64{0.5, 1} {
		src := make([]bool, n)
		for v := 0; v < n; v += 2 {
			src[v] = true
		}
		res := run(t, g, core.Params{IsSource: src, H: n, Sigma: 6, Epsilon: eps})
		o := oracle.Compile(res)
		for v := 0; v < n; v++ {
			for _, e := range res.Lists[v] {
				rt, err := o.Route(g, v, e.Src)
				if err != nil {
					t.Fatal(err)
				}
				if rt.Path[len(rt.Path)-1] != int(e.Src) {
					t.Fatalf("route from %d did not end at %d", v, e.Src)
				}
				if float64(rt.Weight) > e.Dist+tol {
					t.Fatalf("route weight %d exceeds estimate %f (v=%d s=%d)", rt.Weight, e.Dist, v, e.Src)
				}
				exact := ap.Dist(v, int(e.Src))
				if rt.Stretch(exact) > 1+eps+tol {
					t.Fatalf("route stretch %f > 1+ε (v=%d s=%d)", rt.Stretch(exact), v, e.Src)
				}
			}
		}
	}
}

func TestRouteToSelf(t *testing.T) {
	g := graph.NewBuilder(2).AddEdge(0, 1, 3).MustBuild()
	rt, err := oracle.Compile(run(t, g, core.APSPParams(2, 0.5))).Route(g, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if rt.Weight != 0 || len(rt.Path) != 1 {
		t.Fatalf("self route = %+v", rt)
	}
}

func TestRouteToUnknownSourceFails(t *testing.T) {
	g := graph.NewBuilder(3).AddEdge(0, 1, 1).AddEdge(1, 2, 1).MustBuild()
	res := run(t, g, core.Params{IsSource: []bool{true, false, false}, H: 0, Sigma: 1, Epsilon: 0.5})
	if _, err := oracle.Compile(res).Route(g, 2, 0); err == nil {
		t.Fatal("expected routing failure for undetected source")
	}
}

func TestRoutingTreesAreTrees(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	n := 24
	g := graph.RandomConnected(n, 0.15, 12, rng)
	o := oracle.Compile(run(t, g, core.APSPParams(n, 0.5)))
	// The next-hop functions toward each source s are the trees T_s of
	// Lemma 4.4: from every node with an entry for s they must converge
	// to s without cycles.
	for s := int32(0); int(s) < n; s++ {
		for v := 0; v < n; v++ {
			if _, ok := o.NextHop(v, s); !ok {
				continue
			}
			cur := v
			for steps := 0; cur != int(s); steps++ {
				if steps > n {
					t.Fatalf("cycle in T_%d starting at %d", s, v)
				}
				next, ok := o.NextHop(cur, s)
				if !ok {
					t.Fatalf("T_%d broken at %d", s, cur)
				}
				cur = next
			}
		}
	}
}

// TestRouterExternalForwardingLoop drives forwarding the way an external
// caller would — repeatedly asking NextHop and walking the returned edge —
// and checks the documented terminal semantics: a next hop equal to the
// current node means "delivered", occurs exactly at the destination, and
// is never an edge to traverse. Before the semantics were pinned down,
// NextHop(v, s) with v == s handed the caller v as its own next hop and
// the follow-up EdgeBetween(v, v) lookup failed.
func TestRouterExternalForwardingLoop(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	g := graph.RandomConnected(32, 6.0/32, 8, r)
	o := oracle.Compile(run(t, g, core.APSPParams(g.N(), 0.5)))
	n := g.N()
	for v := 0; v < n; v++ {
		for s := int32(0); s < int32(n); s++ {
			cur := v
			for steps := 0; ; steps++ {
				if steps > n*n {
					t.Fatalf("forwarding loop %d->%d did not terminate", v, s)
				}
				next, ok := o.NextHop(cur, s)
				if !ok {
					t.Fatalf("node %d has no entry for %d (from %d)", cur, s, v)
				}
				if next == cur {
					if cur != int(s) {
						t.Fatalf("terminal signal at %d before reaching %d (from %d)", cur, s, v)
					}
					break
				}
				if _, ok := g.EdgeBetween(cur, next); !ok {
					t.Fatalf("next hop %d is not a neighbor of %d (dest %d)", next, cur, s)
				}
				cur = next
			}
		}
	}
	// The terminal answer itself is (s, true).
	if next, ok := o.NextHop(3, 3); !ok || next != 3 {
		t.Fatalf("NextHop(3, 3) = (%d, %v), want terminal (3, true)", next, ok)
	}
}

// TestPropertyRoutesNeverExceedEstimates: on arbitrary partial instances,
// every output-list member is delivered within n steps, at a weight no
// larger than its estimate.
func TestPropertyRoutesNeverExceedEstimates(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 8 + rng.Intn(16)
		g := graph.RandomConnected(n, 0.12+rng.Float64()*0.15, graph.Weight(1+rng.Intn(12)), rng)
		src := make([]bool, n)
		for v := 0; v < n; v += 2 {
			src[v] = true
		}
		p := core.Params{
			IsSource: src, H: n, Sigma: 1 + rng.Intn(n),
			Epsilon: 0.5,
		}
		res, err := core.Run(g, p, congest.Config{})
		if err != nil {
			return false
		}
		o := oracle.Compile(res)
		for v := range res.Lists {
			for _, e := range res.Lists[v] {
				rt, err := o.Route(g, v, e.Src)
				if err != nil {
					return false
				}
				if rt.Path[len(rt.Path)-1] != int(e.Src) {
					return false
				}
				if float64(rt.Weight) > e.Dist+tol {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}
