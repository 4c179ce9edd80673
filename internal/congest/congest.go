// Package congest implements the paper's execution model (§2.1): a
// synchronous message-passing network in which each round every node
// performs local computation, sends at most one B-bit message per incident
// edge direction, and receives its neighbors' messages.
//
// Algorithms are written as one Proc per node. The engine enforces the
// bandwidth constraint, accounts rounds and messages, fast-forwards
// through quiescent periods (reporting both executed and budgeted rounds),
// and schedules only the nodes that can make progress: a worklist of the
// active nodes, collected each round in a bitmap over the nodes, replaces
// any per-round call on all n of them. A Run executes on the caller's
// goroutine and is deterministic: nodes step in ascending id order and
// every inbox is assembled in ascending sender order. An Engine keeps a
// run's storage for the next one, so a caller with many runs (a core.Build
// worker, through its detection.Arena) allocates it once. Parallelism
// lives one level up, across independent executions (core.Build's
// rounding instances), sized by Config.EffectiveWorkers.
package congest

import (
	"fmt"
	"math/bits"

	"pde/internal/graph"
)

// Message is anything an algorithm sends over an edge. Bits reports the
// encoded size used to enforce the B-bit bandwidth limit.
type Message interface {
	Bits() int
}

// Incoming is a delivered message together with its provenance.
type Incoming struct {
	From int // sender node id
	Port int // index of the connecting edge in the receiver's adjacency
	Msg  Message
}

// Proc is the per-node algorithm. Implementations keep their own state;
// the engine never copies Procs.
type Proc interface {
	// Init runs once before the first round with an empty inbox. It may
	// send messages; they are delivered in round 1.
	Init(ctx *Ctx)
	// Round runs once per round in which the node is active (it received
	// a message, or it requested wake-up via Ctx.WakeNext).
	Round(ctx *Ctx)
}

// Ctx is the per-node view of the network for one round. It is only valid
// during the Init or Round call it is passed to.
type Ctx struct {
	node  int
	round int
	nbrs  []graph.Edge
	out   []Message  // one slot per port; non-nil = sent this round
	inbox []Incoming // one slot per port; the first nin were delivered
	nin   int
	// received is the engine epoch in which inbox was last written.
	received int32
	wake     bool
	fault    error
}

// Node returns this node's identifier.
func (c *Ctx) Node() int { return c.node }

// Round returns the current round number (1-based; 0 during Init).
func (c *Ctx) Round() int { return c.round }

// Neighbors returns the node's incident edges; index = port number.
// The slice is shared and must not be modified.
func (c *Ctx) Neighbors() []graph.Edge { return c.nbrs }

// Degree returns the number of incident edges.
func (c *Ctx) Degree() int { return len(c.nbrs) }

// In returns the messages received at the start of this round.
func (c *Ctx) In() []Incoming { return c.inbox[:c.nin] }

// Send transmits m over the given port this round. At most one message
// may be sent per port per round; violations abort the run.
//
//pde:hotpath
func (c *Ctx) Send(port int, m Message) {
	if c.fault != nil {
		return
	}
	if m == nil {
		c.fault = fmt.Errorf("congest: node %d sent a nil message in round %d", c.node, c.round)
		return
	}
	if port < 0 || port >= len(c.nbrs) {
		c.fault = fmt.Errorf("congest: node %d sent on invalid port %d (degree %d)", c.node, port, len(c.nbrs))
		return
	}
	if c.out[port] != nil {
		c.fault = fmt.Errorf("congest: node %d sent twice on port %d in round %d", c.node, port, c.round)
		return
	}
	c.out[port] = m
}

// Broadcast sends m on every port: one point-to-point message per port,
// each counted in Metrics.Messages like any Send.
func (c *Ctx) Broadcast(m Message) {
	for p := range c.nbrs {
		c.Send(p, m)
	}
}

// WakeNext requests that this node be scheduled next round even if it
// receives no messages. Nodes with neither messages nor a wake request
// are skipped, which lets the engine fast-forward quiescent rounds.
func (c *Ctx) WakeNext() { c.wake = true }

// defaultB returns the bandwidth used when Config.B is zero:
// 32 + 2·⌈log₂(n+1)⌉ bits, a concrete Θ(log n) as the model requires.
func defaultB(n int) int {
	return 32 + 2*bits.Len(uint(n))
}
