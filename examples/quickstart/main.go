// Quickstart: build a small weighted network, run partial distance
// estimation (the paper's core primitive, Corollary 3.5), and read the
// results: each node learns (1+ε)-approximate distances and next hops to
// its σ nearest sources, in O((h+σ)ε⁻²·log n + D) CONGEST rounds.
package main

import (
	"fmt"
	"log"

	"pde"
)

func main() {
	// A 10-node network: two clusters joined by one long link.
	//
	//	0-1-2-3-4   (weights 1..4)
	//	    |           edge {2,7} weight 20
	//	5-6-7-8-9   (weights 1..4)
	b := pde.NewBuilder(10)
	for v := 0; v < 4; v++ {
		b.AddEdge(v, v+1, pde.Weight(v+1))
		b.AddEdge(v+5, v+6, pde.Weight(v+1))
	}
	b.AddEdge(2, 7, 20)
	g, err := b.Build()
	if err != nil {
		log.Fatal(err)
	}

	// Sources: nodes 0 and 9. Every node finds its σ=2 nearest sources
	// within h=6 hops, with stretch at most 1+ε = 1.25.
	isSource := make([]bool, g.N())
	isSource[0], isSource[9] = true, true
	res, err := pde.RunEstimation(g, pde.EstimationParams{
		IsSource: isSource,
		H:        6,
		Sigma:    2,
		Epsilon:  0.25,
	}, pde.Config{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("PDE finished: %d round budget (%d active), %d messages, %d rounding instances\n\n",
		res.BudgetRounds, res.ActiveRounds, res.Messages, len(res.Instances))

	truth := pde.GroundTruth(g)
	for v := 0; v < g.N(); v++ {
		fmt.Printf("node %d:", v)
		for _, e := range res.Lists[v] {
			fmt.Printf("  src=%d est=%.1f (exact %d, via %d)",
				e.Src, e.Dist, truth.Dist(v, int(e.Src)), e.Via)
		}
		fmt.Println()
	}

	// Compile the flat oracle once; it serves both hop decisions and
	// direct distance queries.
	ora := pde.CompileOracle(res)

	// Route a packet from node 4 to source 9 using only local tables.
	rt, err := ora.Route(g, 4, 9)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nroute 4 -> 9: path %v, weight %d (exact distance %d)\n",
		rt.Path, rt.Weight, truth.Dist(4, 9))

	// Serve distance queries from the same compiled oracle: each query is
	// one binary search over the node's row, not a scan over every rounding
	// instance — and the index is safe for concurrent readers.
	queries := []pde.OracleQuery{{V: 4, S: 9}, {V: 6, S: 0}, {V: 1, S: 9}}
	answers := make([]pde.OracleAnswer, len(queries))
	ora.AnswerAll(queries, answers)
	fmt.Printf("\noracle (%d entries, %d bytes):\n", ora.Entries(), ora.Bytes())
	for i, q := range queries {
		if !answers[i].OK {
			fmt.Printf("  %d -> %d: not detected\n", q.V, q.S)
			continue
		}
		fmt.Printf("  %d -> %d: est=%.1f via %d\n", q.V, q.S, answers[i].Est.Dist, answers[i].Est.Via)
	}
}
