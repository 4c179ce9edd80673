package congest

import (
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"

	"pde/internal/graph"
)

// Config controls one execution of a distributed algorithm.
type Config struct {
	// B is the per-edge-direction bandwidth in bits per round.
	// Zero means DefaultB(n).
	B int
	// MaxRounds is the round budget. The engine stops after this many
	// rounds even if the network is still active. Zero means no budget
	// (run to quiescence); a run that never quiesces then fails after a
	// safety cap.
	MaxRounds int
	// Parallel shards node steps and message delivery across a goroutine
	// worker pool. Sequential and parallel executions are bit-identical;
	// Parallel only changes wall-clock performance.
	Parallel bool
	// Workers is the worker-pool size when Parallel is set. Zero means
	// GOMAXPROCS. Ignored when Parallel is false.
	Workers int
	// Observer, when non-nil, runs after each round's delivery with the
	// 1-based round number. It runs on the caller's goroutine and may
	// inspect Proc state. Returning true stops the run early (used by
	// experiments that probe for output correctness).
	Observer func(round int) bool
}

// Sub returns a config carrying only the engine-level execution knobs
// (bandwidth and parallelism). Algorithms that launch internal phases
// derive each phase's config from Sub so a caller's MaxRounds or Observer
// never leaks into a sub-phase.
func (c Config) Sub() Config {
	return Config{B: c.B, Parallel: c.Parallel, Workers: c.Workers}
}

// workers resolves the effective worker count for this config.
func (c Config) workers() int {
	if !c.Parallel {
		return 1
	}
	if c.Workers > 0 {
		return c.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// EffectiveWorkers returns the worker-pool width this config resolves to:
// 1 when Parallel is false, Workers when set, else GOMAXPROCS. Callers that
// layer their own instance-level parallelism on top of the engine (e.g.
// core's rounding-instance pipeline) use it to split one worker budget
// between the outer pool and the per-instance engines.
func (c Config) EffectiveWorkers() int { return c.workers() }

// safetyCap bounds unbudgeted runs so a non-terminating algorithm is
// reported as an error instead of hanging.
const safetyCap = 50_000_000

// parallelThreshold is the smallest worklist for which sharding across
// the worker pool pays for the fork/join barrier; smaller phases run
// inline on the caller's goroutine. This is purely a scheduling decision:
// both paths execute identical per-node work.
const parallelThreshold = 48

// Metrics reports what an execution cost in the terms the paper uses.
type Metrics struct {
	// ActiveRounds is the number of rounds the engine actually executed
	// (quiescent tail rounds are skipped).
	ActiveRounds int
	// BudgetRounds is the configured budget (MaxRounds) when one was set,
	// else equal to ActiveRounds. Paper round-complexity claims refer to
	// the budget an algorithm must be given.
	BudgetRounds int
	// Quiesced reports whether the run ended because no node had work.
	Quiesced bool
	// Stopped reports whether the Observer ended the run.
	Stopped bool
	// Messages is the total number of point-to-point messages delivered.
	Messages int64
	// MessageBits is the total number of bits delivered.
	MessageBits int64
	// Broadcasts[v] counts Broadcast calls by node v (Lemma 3.4's
	// per-node quantity).
	Broadcasts []int64
	// Sends[v] counts point-to-point sends by node v.
	Sends []int64
	// MaxBusyPorts is the largest number of distinct (node, port) sends
	// in any single round, a congestion indicator.
	MaxBusyPorts int
}

// MaxBroadcasts returns the per-node maximum of Broadcasts.
func (m *Metrics) MaxBroadcasts() int64 {
	var best int64
	for _, b := range m.Broadcasts {
		if b > best {
			best = b
		}
	}
	return best
}

// Run executes procs (one per node of g) under cfg and returns metrics.
//
// Each round: the nodes on the active worklist take a step (reading
// messages delivered at the end of the previous round), then all sends
// are validated against the bandwidth limit and delivered. Nodes that
// neither received a message nor requested wake-up never appear on the
// worklist; if the worklist empties and nothing is in flight, the
// remaining rounds are vacuously identical and the engine fast-forwards
// to the end of the budget.
func Run(g *graph.Graph, procs []Proc, cfg Config) (*Metrics, error) {
	n := g.N()
	if len(procs) != n {
		return nil, fmt.Errorf("congest: %d procs for %d nodes", len(procs), n)
	}
	b := cfg.B
	if b == 0 {
		b = DefaultB(n)
	}
	limit := cfg.MaxRounds
	if limit == 0 {
		limit = safetyCap
	}

	eng := &engine{
		g:        g,
		procs:    procs,
		b:        b,
		nworkers: cfg.workers(),
		ctxs:     make([]Ctx, n),
		inbox:    make([][]Incoming, n),
		stepped:  make([]int32, n),
		received: make([]int32, n),
		met: &Metrics{
			Broadcasts: make([]int64, n),
			Sends:      make([]int64, n),
		},
	}
	eng.wstats = make([]workerStats, eng.nworkers)
	eng.wfaults = make([]deliverFault, eng.nworkers)
	for v := 0; v < n; v++ {
		nbrs := g.Neighbors(v)
		eng.ctxs[v] = Ctx{
			node: v,
			nbrs: nbrs,
			out:  make([]Message, len(nbrs)),
		}
	}
	if err := eng.buildBackPorts(); err != nil {
		return nil, err
	}

	// Init phase (round 0): every node is on the worklist.
	eng.active = make([]int, n)
	for v := range eng.active {
		eng.active[v] = v
	}
	if err := eng.step(0, true); err != nil {
		return nil, err
	}
	if err := eng.deliver(); err != nil {
		return nil, err
	}

	for r := 1; r <= limit; r++ {
		if len(eng.active) == 0 {
			eng.met.Quiesced = true
			break
		}
		if err := eng.step(r, false); err != nil {
			return nil, err
		}
		if err := eng.deliver(); err != nil {
			return nil, err
		}
		eng.met.ActiveRounds = r
		if cfg.Observer != nil && cfg.Observer(r) {
			eng.met.Stopped = true
			break
		}
	}
	if cfg.MaxRounds == 0 && !eng.met.Quiesced && !eng.met.Stopped {
		return nil, errors.New("congest: run exceeded safety cap without quiescing")
	}
	eng.met.BudgetRounds = cfg.MaxRounds
	if cfg.MaxRounds == 0 {
		eng.met.BudgetRounds = eng.met.ActiveRounds
	}
	// Per-node send/broadcast counters accumulate inside each Ctx with no
	// cross-worker traffic; publish them once at the end of the run.
	for v := 0; v < n; v++ {
		eng.met.Broadcasts[v] = eng.ctxs[v].nbcasts
		eng.met.Sends[v] = eng.ctxs[v].nsends
	}
	return eng.met, nil
}

// workerStats accumulates one worker's delivery counters for a round.
// Padded to a cache line so concurrent workers do not false-share.
type workerStats struct {
	msgs int64
	bits int64
	busy int64
	_    [40]byte
}

// deliverFault records a bandwidth violation observed by one worker.
// Sender/port make fault selection deterministic under sharding.
type deliverFault struct {
	sender int
	port   int
	err    error
}

type engine struct {
	g        *graph.Graph
	procs    []Proc
	b        int
	nworkers int
	ctxs     []Ctx
	inbox    [][]Incoming // per-node pooled inbox buffers
	backPort [][]int32    // backPort[v][p]: port of nbrs[v][p].To pointing back to v
	met      *Metrics

	// epoch increments once per round. stepped[v] == epoch marks v's
	// outbox as fresh this round; received[u] == epoch marks u's inbox as
	// filled this round (and therefore readable next round).
	epoch    int32
	stepped  []int32
	received []int32

	active []int // sorted worklist for the current round
	recv   []int // nodes receiving a message this round (sorted)
	wake   []int // active nodes that requested wake-up (sorted)
	merged []int // scratch for the next worklist

	wstats  []workerStats
	wfaults []deliverFault
}

// buildBackPorts computes the reverse-port table in O(n + m): a message
// sent by v on port p is delivered to u = nbrs[v][p].To together with u's
// port back to v, so receivers know which edge it used.
func (e *engine) buildBackPorts() error {
	n := e.g.N()
	m := e.g.M()
	// For undirected edge id, record the port at each endpoint (lo = the
	// smaller endpoint id).
	loPort := make([]int32, m)
	hiPort := make([]int32, m)
	for v := 0; v < n; v++ {
		for p, ed := range e.g.Neighbors(v) {
			if ed.To == v {
				return fmt.Errorf("congest: self-loop at node %d", v)
			}
			if v < ed.To {
				loPort[ed.ID] = int32(p)
			} else {
				hiPort[ed.ID] = int32(p)
			}
		}
	}
	e.backPort = make([][]int32, n)
	for v := 0; v < n; v++ {
		nbrs := e.g.Neighbors(v)
		e.backPort[v] = make([]int32, len(nbrs))
		for p, ed := range nbrs {
			if v < ed.To {
				e.backPort[v][p] = hiPort[ed.ID]
			} else {
				e.backPort[v][p] = loPort[ed.ID]
			}
		}
	}
	return nil
}

// shard splits k items into chunks and runs fn(worker, lo, hi) on the
// pool; small k runs inline. fn must only touch disjoint state per item
// plus its own worker-indexed scratch.
func (e *engine) shard(k int, fn func(w, lo, hi int)) {
	if e.nworkers <= 1 || k < parallelThreshold {
		fn(0, 0, k)
		return
	}
	workers := e.nworkers
	if workers > k {
		workers = k
	}
	chunk := (k + workers - 1) / workers
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		lo := w * chunk
		hi := min(lo+chunk, k)
		if lo >= hi {
			break
		}
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			fn(w, lo, hi)
		}(w, lo, hi)
	}
	wg.Wait()
}

// step runs Init (init=true) or Round on every worklist node.
func (e *engine) step(round int, init bool) error {
	e.epoch++
	ep := e.epoch
	e.shard(len(e.active), func(_, lo, hi int) {
		for _, v := range e.active[lo:hi] {
			c := &e.ctxs[v]
			c.round = round
			if e.received[v] == ep-1 {
				c.inbox = e.inbox[v]
			} else {
				c.inbox = nil
			}
			c.wake = false
			out := c.out
			for p := range out {
				out[p] = nil
			}
			e.stepped[v] = ep
			if init {
				e.procs[v].Init(c)
			} else {
				e.procs[v].Round(c)
			}
			c.inbox = nil
		}
	})
	for _, v := range e.active {
		if e.ctxs[v].fault != nil {
			return e.ctxs[v].fault
		}
	}
	return nil
}

// deliver validates and moves this round's sends into the receivers'
// inboxes and computes the next worklist. The sequential engine pushes in
// one pass over the (sorted) senders; the parallel engine first gathers
// the receiver set, then shards delivery by receiver, each receiver
// pulling from its neighbors' outboxes along its sorted adjacency. Both
// orders leave every inbox sorted by ascending sender id, so the two
// engines are bit-identical.
func (e *engine) deliver() error {
	ep := e.epoch
	e.recv = e.recv[:0]
	e.wake = e.wake[:0]

	if e.nworkers > 1 && len(e.active) >= parallelThreshold {
		if err := e.deliverParallel(ep); err != nil {
			return err
		}
	} else if err := e.deliverSequential(ep); err != nil {
		return err
	}

	// Next worklist: nodes that received a message or requested wake-up.
	// Both lists are sorted (wake follows the sorted worklist; recv is
	// sorted explicitly), so a merge keeps the invariant.
	e.merged = mergeSorted(e.merged[:0], e.recv, e.wake)
	e.active, e.merged = e.merged, e.active
	return nil
}

// deliverSequential pushes sends receiver-ward in one pass over senders.
func (e *engine) deliverSequential(ep int32) error {
	var busy int
	for _, v := range e.active {
		c := &e.ctxs[v]
		if c.wake {
			e.wake = append(e.wake, v)
		}
		for p, m := range c.out {
			if m == nil {
				continue
			}
			bits := m.Bits()
			if bits > e.b {
				return fmt.Errorf("congest: node %d sent %d-bit message, bandwidth B=%d", v, bits, e.b)
			}
			u := c.nbrs[p].To
			if e.received[u] != ep {
				e.received[u] = ep
				e.recv = append(e.recv, u)
				e.inbox[u] = e.inbox[u][:0]
			}
			e.inbox[u] = append(e.inbox[u], Incoming{
				From: v,
				Port: int(e.backPort[v][p]),
				Msg:  m,
			})
			busy++
			e.met.Messages++
			e.met.MessageBits += int64(bits)
		}
	}
	if busy > e.met.MaxBusyPorts {
		e.met.MaxBusyPorts = busy
	}
	sort.Ints(e.recv)
	return nil
}

// deliverParallel gathers the receiver set sequentially (marking only),
// then shards the expensive part — validation, inbox assembly and
// accounting — across the worker pool, one receiver owned by exactly one
// worker. Metrics accumulate per worker and are reduced at round end;
// faults are reduced to the one with the smallest (sender, port).
func (e *engine) deliverParallel(ep int32) error {
	for _, v := range e.active {
		c := &e.ctxs[v]
		if c.wake {
			e.wake = append(e.wake, v)
		}
		for p, m := range c.out {
			if m == nil {
				continue
			}
			u := c.nbrs[p].To
			if e.received[u] != ep {
				e.received[u] = ep
				e.recv = append(e.recv, u)
			}
		}
	}
	sort.Ints(e.recv)

	for w := range e.wstats {
		e.wstats[w] = workerStats{}
		e.wfaults[w] = deliverFault{sender: -1}
	}
	e.shard(len(e.recv), func(w, lo, hi int) {
		st := &e.wstats[w]
		for _, u := range e.recv[lo:hi] {
			buf := e.inbox[u][:0]
			back := e.backPort[u]
			for p, ed := range e.ctxs[u].nbrs {
				v := ed.To
				if e.stepped[v] != ep {
					continue
				}
				q := back[p] // v's port toward u
				m := e.ctxs[v].out[q]
				if m == nil {
					continue
				}
				bits := m.Bits()
				if bits > e.b {
					f := &e.wfaults[w]
					if f.sender < 0 || v < f.sender || (v == f.sender && int(q) < f.port) {
						*f = deliverFault{sender: v, port: int(q),
							err: fmt.Errorf("congest: node %d sent %d-bit message, bandwidth B=%d", v, bits, e.b)}
					}
					continue
				}
				buf = append(buf, Incoming{From: v, Port: p, Msg: m})
				st.msgs++
				st.bits += int64(bits)
			}
			st.busy += int64(len(buf))
			e.inbox[u] = buf
		}
	})

	var fault *deliverFault
	for w := range e.wfaults {
		f := &e.wfaults[w]
		if f.sender < 0 {
			continue
		}
		if fault == nil || f.sender < fault.sender ||
			(f.sender == fault.sender && f.port < fault.port) {
			fault = f
		}
	}
	if fault != nil {
		return fault.err
	}
	var busy int64
	for w := range e.wstats {
		st := &e.wstats[w]
		e.met.Messages += st.msgs
		e.met.MessageBits += st.bits
		busy += st.busy
	}
	if int(busy) > e.met.MaxBusyPorts {
		e.met.MaxBusyPorts = int(busy)
	}
	return nil
}

// mergeSorted appends the union of two sorted int slices to dst,
// deduplicating, and returns dst.
func mergeSorted(dst, a, b []int) []int {
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			dst = append(dst, a[i])
			i++
		case a[i] > b[j]:
			dst = append(dst, b[j])
			j++
		default:
			dst = append(dst, a[i])
			i++
			j++
		}
	}
	dst = append(dst, a[i:]...)
	dst = append(dst, b[j:]...)
	return dst
}
