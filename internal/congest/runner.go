package congest

import (
	"errors"
	"fmt"
	"math"
	"math/bits"

	"pde/internal/graph"
	"pde/internal/par"
)

// Config controls one execution of a distributed algorithm.
type Config struct {
	// B is the per-edge-direction bandwidth in bits per round.
	// Zero means 32 + 2·⌈log₂(n+1)⌉ bits (defaultB).
	B int
	// MaxRounds is the round budget. The engine stops after this many
	// rounds even if the network is still active. Zero means no budget
	// (run to quiescence); a run that never quiesces then fails after a
	// safety cap.
	MaxRounds int
	// Parallel and Workers size core.Build's par.For over its rounding
	// instances, the one caller that runs executions side by side, through
	// EffectiveWorkers; the pool never has more goroutines than instances
	// to detect. A single Run always executes on the caller's goroutine
	// and ignores both.
	Parallel bool
	// Workers is the pool width when Parallel is set. Zero means
	// GOMAXPROCS (par.Width's rule). Ignored when Parallel is false.
	Workers int
	// Observer, when non-nil, runs after each round's delivery with the
	// 1-based round number. It runs on the caller's goroutine and may
	// inspect Proc state. Returning true stops the run early (used by
	// experiments that probe for output correctness).
	Observer func(round int) bool
}

// Sub returns a config carrying only the execution knobs (bandwidth and
// pool width). Algorithms that launch internal phases derive each phase's
// config from Sub so a caller's MaxRounds or Observer never leaks into a
// sub-phase.
func (c Config) Sub() Config {
	return Config{B: c.B, Parallel: c.Parallel, Workers: c.Workers}
}

// EffectiveWorkers returns the pool width this config resolves to before
// a caller caps it by its item count: 1 when Parallel is false, else
// Workers under par.Width's rule (0 = GOMAXPROCS).
func (c Config) EffectiveWorkers() int {
	if !c.Parallel {
		return 1
	}
	return par.Width(c.Workers, math.MaxInt)
}

// safetyCap bounds unbudgeted runs so a non-terminating algorithm is
// reported as an error instead of hanging.
const safetyCap = 50_000_000

// Metrics reports what an execution cost in the terms the paper uses.
type Metrics struct {
	// ActiveRounds is the number of rounds the engine actually executed
	// (quiescent tail rounds are skipped).
	ActiveRounds int
	// BudgetRounds is the configured budget (MaxRounds) when one was set,
	// else equal to ActiveRounds. Paper round-complexity claims refer to
	// the budget an algorithm must be given.
	BudgetRounds int
	// Messages is the total number of point-to-point messages delivered.
	Messages int64
	// MessageBits is the total number of bits delivered.
	MessageBits int64
}

// Run executes procs (one per node of g) under cfg and returns metrics. It
// is new(Engine).Run; a caller that makes many runs keeps one Engine.
//
// Each round: the nodes on the active worklist take a step (reading
// messages delivered at the end of the previous round), then all sends
// are validated against the bandwidth limit and delivered. Nodes that
// neither received a message nor requested wake-up never appear on the
// worklist; if the worklist empties and nothing is in flight, the
// remaining rounds are vacuously identical and the engine fast-forwards
// to the end of the budget.
func Run(g *graph.Graph, procs []Proc, cfg Config) (*Metrics, error) {
	return new(Engine).Run(g, procs, cfg)
}

// Engine is the storage of a run: the nodes' contexts, one send slot and
// one receive slot per port (2m of each, a node's ports being one window
// of both), the worklist and the bitmap the next one is collected in. The
// zero value is ready. Runs on one Engine go one after the other: each
// sizes the storage to its graph and reuses it when it is large enough,
// so a run allocates only its Metrics. The reverse port a receiver is
// told comes from graph.Edge.Back, computed once per graph.
type Engine struct {
	procs []Proc
	b     int
	met   *Metrics
	ctxs  []Ctx
	out   []Message
	inbox []Incoming
	// epoch increments once per round. ctxs[u].received == epoch marks
	// u's inbox as filled this round (and therefore readable next round).
	epoch int32
	// active[:nactive] is the current round's worklist, ascending; next
	// has one bit per node that steps in the round after it.
	active  []int32
	nactive int
	next    []uint64
}

// resize returns s with length n, reallocated only if it is too small.
// The contents are whatever the last run left.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// Run is the package's Run on e's storage.
func (e *Engine) Run(g *graph.Graph, procs []Proc, cfg Config) (*Metrics, error) {
	n := g.N()
	if len(procs) != n {
		return nil, fmt.Errorf("congest: %d procs for %d nodes", len(procs), n)
	}
	b := cfg.B
	if b == 0 {
		b = defaultB(n)
	}
	limit := cfg.MaxRounds
	if limit == 0 {
		limit = safetyCap
	}
	e.reset(g, procs, b)
	met := e.met

	// Init phase (round 0): every node is on the worklist.
	for v := range n {
		e.active[v] = int32(v)
	}
	e.nactive = n
	if err := e.step(0, true); err != nil {
		return nil, err
	}
	if err := e.deliver(); err != nil {
		return nil, err
	}

	stopped := false
	for r := 1; r <= limit && e.nactive > 0; r++ {
		if err := e.step(r, false); err != nil {
			return nil, err
		}
		if err := e.deliver(); err != nil {
			return nil, err
		}
		met.ActiveRounds = r
		if cfg.Observer != nil && cfg.Observer(r) {
			stopped = true
			break
		}
	}
	if cfg.MaxRounds == 0 && e.nactive > 0 && !stopped {
		return nil, errors.New("congest: run exceeded safety cap without quiescing")
	}
	met.BudgetRounds = cfg.MaxRounds
	if cfg.MaxRounds == 0 {
		met.BudgetRounds = met.ActiveRounds
	}
	return met, nil
}

// reset sizes e's storage to g and hands every node its windows. The send
// slots and the bitmap are cleared, because a run that faulted mid-round
// leaves sends and bits behind; the receive slots need not be, because a
// node reads only what was delivered to it this run.
func (e *Engine) reset(g *graph.Graph, procs []Proc, b int) {
	n, ports := g.N(), 2*g.M()
	e.procs, e.b, e.epoch = procs, b, 0
	e.met = new(Metrics)
	e.ctxs = resize(e.ctxs, n)
	e.out = resize(e.out, ports)
	clear(e.out)
	e.inbox = resize(e.inbox, ports)
	e.active = resize(e.active, n)
	e.next = resize(e.next, (n+63)>>6)
	clear(e.next)
	off := 0
	for v := range e.ctxs {
		nbrs := g.Neighbors(v)
		end := off + len(nbrs)
		e.ctxs[v] = Ctx{
			node:  v,
			nbrs:  nbrs,
			out:   e.out[off:end:end],
			inbox: e.inbox[off:end:end],
		}
		off = end
	}
}

// step runs Init (init=true) or Round on every worklist node.
//
//pde:hotpath
func (e *Engine) step(round int, init bool) error {
	e.epoch++
	ep := e.epoch
	for _, v := range e.active[:e.nactive] {
		c := &e.ctxs[v]
		c.round = round
		if c.received != ep-1 {
			c.nin = 0
		}
		c.wake = false
		if init {
			e.procs[v].Init(c)
		} else {
			e.procs[v].Round(c)
		}
		if c.fault != nil {
			return c.fault
		}
	}
	return nil
}

// deliver validates and moves this round's sends into the receivers'
// inboxes in one pass over the (ascending) senders, so every inbox is in
// ascending sender order, and empties each send slot it reads. Receivers
// and wakers set their bit in next, and one scan of it makes the next
// worklist, ascending again.
//
//pde:hotpath
func (e *Engine) deliver() error {
	ep := e.epoch
	var msgs, msgBits int64
	for _, v := range e.active[:e.nactive] {
		c := &e.ctxs[v]
		if c.wake {
			e.next[v>>6] |= 1 << (v & 63)
		}
		for p, m := range c.out {
			if m == nil {
				continue
			}
			c.out[p] = nil
			nb := m.Bits()
			if nb > e.b {
				return fmt.Errorf("congest: node %d sent %d-bit message, bandwidth B=%d", v, nb, e.b)
			}
			ed := &c.nbrs[p]
			r := &e.ctxs[ed.To]
			if r.received != ep {
				r.received = ep
				r.nin = 0
				e.next[ed.To>>6] |= 1 << (ed.To & 63)
			}
			r.inbox[r.nin] = Incoming{From: int(v), Port: int(ed.Back), Msg: m}
			r.nin++
			msgs++
			msgBits += int64(nb)
		}
	}
	e.met.Messages += msgs
	e.met.MessageBits += msgBits

	k := 0
	for w, word := range e.next {
		if word == 0 {
			continue
		}
		e.next[w] = 0
		for ; word != 0; word &= word - 1 {
			e.active[k] = int32(w<<6 + bits.TrailingZeros64(word))
			k++
		}
	}
	e.nactive = k
	return nil
}
