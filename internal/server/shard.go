package server

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"pde/internal/core"
	"pde/internal/graph"
	"pde/internal/scheme"
)

// Spec is the scheme engine's build recipe (see internal/scheme.Spec):
// topology + PDE parameters + the scheme selector (oracle | rtc |
// compact) and its knobs (k, strategy, ...). It is the JSON body of
// shard specs and /v1/rebuild overrides and appears verbatim in
// /v1/stats, so a shard's tables are always reproducible from what the
// daemon reports — for every backend, not just oracle.
type Spec = scheme.Spec

// shard is one immutable snapshot of a built scheme instance. Queries
// read it through slot.load() and never observe it mid-build: a rebuild
// constructs the whole instance off to the side and publishes it with a
// single atomic pointer swap.
type shard struct {
	spec scheme.Spec
	inst scheme.Instance
	g    *graph.Graph

	fp      string // %016x of fpRaw; returned with every answer
	fpRaw   uint64 // the raw fingerprint, stamped on PDE2 answer frames
	buildNS int64
}

// buildShard runs the scheme registry's full build — generate the graph,
// run the construction, compile the serving tables — the expensive path
// behind New and /v1/rebuild.
func buildShard(sp Spec) (*shard, error) {
	inst, err := scheme.Build(sp)
	if err != nil {
		return nil, err
	}
	return instShard(inst), nil
}

// newShard wraps already-built oracle tables into a serving snapshot (the
// Prebuilt path for callers that paid for the construction elsewhere).
func newShard(sp Spec, g *graph.Graph, res *core.Result, buildNS int64) (*shard, error) {
	inst, err := scheme.NewOracleInstance(sp, g, res, buildNS)
	if err != nil {
		return nil, err
	}
	return instShard(inst), nil
}

// instShard wraps a built instance into the serving snapshot.
func instShard(inst scheme.Instance) *shard {
	fp := inst.Fingerprint()
	return &shard{
		spec:    inst.Spec(),
		inst:    inst,
		g:       inst.Graph(),
		fp:      fmt.Sprintf("%016x", fp),
		fpRaw:   fp,
		buildNS: inst.BuildNS(),
	}
}

// slot is the long-lived holder of one named shard: the atomic pointer
// the hot-swap happens through, plus everything that survives a swap
// (stats, the route cache). The slot map itself is
// immutable after New; only the pointer inside a slot ever changes.
type slot struct {
	name    string
	ptr     atomic.Pointer[shard]
	buildMu sync.Mutex // serializes rebuilds and updates of this shard
	stats   shardStats
	cache   *routeCache
	// mutated is set once /v1/update has drifted the serving graph away
	// from the spec's generated one, and cleared by /v1/rebuild. While
	// set, the spec in /v1/stats no longer reproduces the tables.
	mutated atomic.Bool
}

func (sl *slot) load() *shard { return sl.ptr.Load() }

// swap publishes sh and reports the fingerprint it replaced.
func (sl *slot) swap(sh *shard) (oldFP string) {
	old := sl.ptr.Swap(sh)
	sl.stats.builds.Add(1)
	sl.stats.lastSwapUnixNS.Store(time.Now().UnixNano())
	if old == nil {
		return ""
	}
	return old.fp
}
