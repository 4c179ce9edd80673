// Package detection implements the (S, h, σ)-detection substrate the paper
// builds on: the unweighted source-detection algorithm of Lenzen–Peleg [10]
// with the paper's Lemma 3.4 message cap, generalized to run on the virtual
// subdivided graphs G_i of §3.
//
// In G_i every edge e of the real network becomes a path of
// ℓ(e) = ⌈W(e)/b(i)⌉ unit edges. A run is handed the base b(i), not the
// lengths: Params.Length derives ℓ(e) from the edge's weight wherever it
// is read, so no run stores a per-edge array of them. The relay nodes of
// such a path are simulated by the two real endpoints (each owns its
// half), and only the emission that crosses the midpoint of the line is
// charged as a real CONGEST message — exactly the simulation the paper's
// round accounting assumes. Relay cells run the same detection logic as
// real nodes, except that a cell hands a pair on only away from where it
// came from. All cells of a run are laid out in one Arena before it
// starts, but a round only visits the cells of each line that announced
// something or are waiting to, so an idle cell costs memory and no time.
// Edges with ℓ(e) > h are excluded: no source within h virtual hops can
// be detected through them, so outputs are unchanged.
//
// A Result holds the σ entries per node of Corollary 3.5 in pages of
// PageRows nodes, 12 bytes an entry: the (distance, source) pair packed in
// one word and the next hop beside it. A source's flag bits are
// Params.Flags[src] wherever the pair travels, so no entry stores them.
// Repair lays out again only the pages on which some list changed and
// shares every other page with the result it repairs.
package detection

import (
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sort"

	"pde/internal/congest"
	"pde/internal/graph"
)

// Scheduling selects which pending pair a unit announces each round.
type Scheduling int

const (
	// LexSmallest is the paper's rule: broadcast the lexicographically
	// smallest (distance, source) pair not yet announced, restricted to
	// the unit's current top-σ list.
	LexSmallest Scheduling = iota + 1
	// FIFO is the naive flooding ablation: announce updates in arrival
	// order with no top-σ restriction. Correct, but without the paper's
	// message bounds.
	FIFO
	// Priority announces the pending pair minimizing delay(src) + dist,
	// emulating the randomized random-delay BFS scheduling of Nanongkai
	// [14] that the paper derandomizes.
	Priority
)

// Params describes one (S, h, σ)-detection instance.
type Params struct {
	// IsSource marks the nodes of S.
	IsSource []bool
	// Flags carries per-source metadata bits (e.g. membership in the next
	// sampling level, §4.3). In the model they ride along in every message
	// about the source, and each is charged 8 bits for them; being the
	// source's, they are read from here rather than carried. May be nil.
	Flags []uint8
	// H is the hop bound h, counted in virtual hops of the subdivided
	// graph.
	H int
	// Sigma is σ, the number of closest sources to detect.
	Sigma int
	// Base is the rounding base b of the instance: an edge of weight w is
	// a line of Length(w) virtual edges. Zero makes every edge one hop
	// (plain unweighted detection on the real graph).
	Base float64
	// CapMessages enforces the Lemma 3.4 per-unit cap of σ(σ+1)/2
	// announcements.
	CapMessages bool
	// Scheduling defaults to LexSmallest.
	Scheduling Scheduling
	// Delays[src] is the per-source start delay for Priority scheduling.
	// Nil means zero delays.
	Delays []int32
	// ExtraRounds adds slack to the H + min(σ,|S|) + 1 round budget.
	ExtraRounds int
}

// Length returns the subdivided length ℓ(e) of an edge of weight w, the
// §3 rounding ⌈w/Base⌉: at least 1 and clamped at H+1, since every edge
// longer than H is excluded alike. It is 1 when Base is 0. Nothing else
// computes ℓ(e): the line layout, BruteForce and Repair all read it here.
func (p *Params) Length(w graph.Weight) int32 {
	if p.Base == 0 {
		return 1
	}
	return int32(max(1, min(math.Ceil(float64(w)/p.Base), float64(p.H)+1)))
}

// pairMsg is the on-wire format: one (distance, source) pair. The
// source's flag bits are Params.Flags[src], so the pair does not hold
// them, but Bits charges for them as the model sends them.
type pairMsg struct {
	dist int32
	src  int32
}

// Bits is 8 flag bits plus the minimal binary lengths of the distance and
// source id: O(log n) as the model requires.
//
// The pointer receiver matters for throughput: messages cross the engine
// as *pairMsg pointing into a per-port double-buffered wire slot (see
// edgeSim.wire / nodeProc.selfWire), so steady-state rounds perform no
// per-message heap allocation. A slot written in round r is only read by
// its receiver in round r+1, while round r+1's emission goes to the
// other parity slot — the two never overlap.
func (m *pairMsg) Bits() int {
	return 8 + bits.Len32(uint32(m.dist)) + bits.Len32(uint32(m.src))
}

// A unit's knowledge about one source is one word, its key:
//
//	dist<<33 | src<<2 | high<<1 | sent
//
// A list holds a source once, so two keys of one list differ above the two
// flag bits and comparing the words compares (dist, src): the rank, the
// full-list test and the source scan are single-word compares. sent says
// the pair was announced at its current dist (an improvement clears it).
// high is for relay cells: the pair arrived from the far side of the line
// (cell j+1, or across the real edge for the boundary cell) rather than
// from the side of the node that owns the cell. The source's flag bits are
// not stored: they are Params.Flags[src] wherever the pair travels. The
// next hop (Via) is kept for real nodes only, in nodeProc.via.
const (
	sentBit   uint64 = 1 << 0
	highBit   uint64 = 1 << 1
	srcShift         = 2
	distShift        = 33
	srcBits   uint64 = (1<<31 - 1) << srcShift
)

// pack returns the key of (d, s) with both flags clear.
//
//pde:hotpath
func pack(d, s int32) uint64 { return uint64(d)<<distShift | uint64(s)<<srcShift }

// keyDist and keySrc take a key apart again.
//
//pde:hotpath
func keyDist(k uint64) int32 { return int32(k >> distShift) }

//pde:hotpath
func keySrc(k uint64) int32 { return int32((k & srcBits) >> srcShift) }

// hop returns what a neighbour is told when k is announced: the same
// source one hop further, flags clear.
//
//pde:hotpath
func hop(k uint64) uint64 { return (k + 1<<distShift) &^ (sentBit | highBit) }

// reserveEntries bounds the list window every unit is handed from the
// arena. With σ ≤ reserveEntries a list never moves; a longer one (APSP
// has σ = n) doubles from here in nodeProc.grow, so relay cells that stay
// short never pay for σ slots.
const reserveEntries = 16

// shortScan is the list length up to which looking a source up by walking
// the list beats a hash probe; a list that outgrows it gets a srcIndex.
const shortScan = 32

// unit is one node of the virtual graph: either a real node or a relay
// cell on a subdivided edge. Its list — keys[off : off+n] of the owning
// node's slab, in a window of cap words — is kept sorted and capped at σ:
// an entry crowded out of the top σ can, by the domination argument behind
// Lemma 3.4, never matter to this unit's neighbors. A unit holds no
// pointer, so the cell slab is nothing the garbage collector scans.
type unit struct {
	off, n, cap int32
	scanFrom    int32
	sentCnt     int32
	ext         int32  // 1 + the unit's index in nodeProc.exts; 0: it has none
	emit        uint64 // the key last emitPhase announced, if it announced
}

// unitExt is what few units need: a source index once the list is long,
// an arrival queue under FIFO. A relay cell with a short list under the
// paper's rule never has one.
type unitExt struct {
	idx  srcIndex // no slots until the list outgrows shortScan
	fifo []int32
}

// srcIndex maps a source to the distance its entry holds in one unit's
// list, so that insert need not walk a long list to learn that a pair
// brings nothing new. It is an open-addressed table over the sources the
// list holds, rebuilt from the list as that grows; a slot left behind by
// an evicted source is harmless, because lists only ever improve: a pair
// no better than an evicted one is still beyond rank σ.
type srcIndex struct {
	slots []idxSlot // power-of-two length; key 0 marks an empty slot
	log2  uint8     // of len(slots)
	used  int
}

type idxSlot struct {
	key  int32 // src + 1
	dist int32
}

// slot returns the slot holding s, or the empty one where s belongs. Node
// ids are dense and a neighbour announces in (dist, src) order, so the
// low bits alone keep successive probes on neighbouring slots; folding
// the high bits in keeps a strided source set from piling onto a few.
//
//pde:hotpath
func (x *srcIndex) slot(s int32) *idxSlot {
	mask := uint32(len(x.slots) - 1)
	for i := (uint32(s) ^ uint32(s)>>x.log2) & mask; ; i = (i + 1) & mask {
		if k := x.slots[i].key; k == s+1 || k == 0 {
			return &x.slots[i]
		}
	}
}

// rank returns how many keys of the sorted l are below key.
//
//pde:hotpath
func rank(l []uint64, key uint64) int {
	lo := 0
	for hi := len(l); lo < hi; {
		m := int(uint(lo+hi) >> 1)
		if l[m] < key {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo
}

// shared is the run-wide immutable configuration all node procs read.
type shared struct {
	p        Params
	sigma    int
	beyond   uint64 // pack(h+1, 0): a key at or past it is out of the hop bound
	capLimit int32
	sched    Scheduling
}

// msg is the wire form of an announced key.
//
//pde:hotpath
func msg(k uint64) pairMsg { return pairMsg{dist: keyDist(k), src: keySrc(k)} }

// edgeSim is one real edge's virtual line as seen from one endpoint: the
// endpoint's own relay cells ordered by distance from it. cells[len-1] is
// the boundary cell whose emission crosses the real edge.
type edgeSim struct {
	excluded bool
	cells    []unit // a span of the arena's cell slab
	// One bit per cell. emitting: the cell announced in the last emitPhase.
	// hot: an insert has changed the cell since, or it still holds
	// something unannounced. A cell in neither set is idle — no emission
	// to integrate, nothing to announce — and is not visited.
	emitting, hot []uint64
	// wire double-buffers the boundary emission that crosses the real
	// edge, indexed by round parity, so sends need no allocation.
	wire [2]pairMsg
}

// touch marks cell j hot.
//
//pde:hotpath
func (es *edgeSim) touch(j int) { es.hot[j>>6] |= 1 << (j & 63) }

type nodeProc struct {
	sh       *shared
	self     unit
	selfEmit bool // self announced in the last emitPhase
	// keys is the list storage of self and every cell the node owns: its
	// span of the arena, or the node's own wider copy once a list has
	// outgrown its window.
	keys []uint64
	// via[i] is the real neighbor self's i-th entry arrived from.
	via  []int32
	exts []unitExt
	// selfWire double-buffers self's emission for zero-cell edges.
	selfWire [2]pairMsg
	edges    []edgeSim
}

// list returns u's sorted keys.
//
//pde:hotpath
func (n *nodeProc) list(u *unit) []uint64 { return n.keys[u.off:][:u.n] }

// extOf returns u's unitExt, giving it one first if it has none. The
// pointer is good until the next call.
func (n *nodeProc) extOf(u *unit) *unitExt {
	if u.ext == 0 {
		n.exts = append(n.exts, unitExt{})
		u.ext = int32(len(n.exts))
	}
	return &n.exts[u.ext-1]
}

// reindex rebuilds u's index from its list, at a quarter load or less.
func (n *nodeProc) reindex(u *unit) {
	l := n.list(u)
	want := 4 * shortScan
	for want < 4*len(l) {
		want <<= 1
	}
	x := &n.extOf(u).idx
	if len(x.slots) < want {
		x.slots = make([]idxSlot, want)
		x.log2 = uint8(bits.TrailingZeros(uint(want)))
	} else {
		clear(x.slots)
	}
	x.used = len(l)
	for _, k := range l {
		*x.slot(keySrc(k)) = idxSlot{key: keySrc(k) + 1, dist: keyDist(k)}
	}
}

// grow moves u's list to a window of twice the capacity, up to σ, appended
// to the node's slab. The first growth at a node copies its arena span
// into a slab of its own (the span's capacity ends where the next node's
// begins); the window left behind is not reused.
func (n *nodeProc) grow(u *unit) {
	c := min(2*int(u.cap), n.sh.sigma)
	off := len(n.keys)
	n.keys = slices.Grow(n.keys, c)[:off+c]
	copy(n.keys[off:], n.list(u))
	u.off, u.cap = int32(off), int32(c)
	if u == &n.self {
		n.via = append(make([]int32, 0, c), n.via...)[:c]
	}
}

// enqueue records a changed source in FIFO arrival order.
func (n *nodeProc) enqueue(u *unit, s int32) {
	x := n.extOf(u)
	x.fifo = append(x.fifo, s)
}

// insert merges a received key (already a hop further than it was
// announced, sent clear) into u's list and reports whether anything
// changed; via is recorded when u is the node's own unit. The tests run
// cheapest first: the hop bound, then a full list's last key, and only
// then the search for the source's present entry — which on a short list
// is one walk that also counts the key's rank.
//
//pde:hotpath
func (n *nodeProc) insert(u *unit, key uint64, via int32) bool {
	sh := n.sh
	if key >= sh.beyond {
		return false
	}
	l := n.list(u)
	cnt := len(l)
	if cnt == sh.sigma {
		// Either the source is held at ≤ dist, or the key ranks beyond σ.
		if cnt == 0 || l[cnt-1]>>srcShift <= key>>srcShift {
			return false
		}
	}
	// Locate the source's present entry (at) and the key's rank among the
	// entries before it (r).
	at, r := -1, 0
	var x *srcIndex
	var sl *idxSlot
	if u.ext != 0 && n.exts[u.ext-1].idx.slots != nil {
		x = &n.exts[u.ext-1].idx
		s := keySrc(key)
		if sl = x.slot(s); sl.key != 0 {
			if sl.dist <= keyDist(key) {
				return false
			}
			if i := rank(l, pack(sl.dist, s)); i < cnt && keySrc(l[i]) == s {
				at = i
			}
		}
		if at >= 0 {
			r = rank(l[:at], key)
		} else {
			r = rank(l, key)
		}
	} else {
		for i, k := range l {
			if (k^key)&srcBits == 0 {
				if k>>srcShift <= key>>srcShift {
					return false
				}
				at = i
				break
			}
			if k < key {
				r++
			}
		}
	}
	// An improvement moves the entry up from at; a new source enters at
	// its rank, which the tests above have shown to be below σ, and a
	// full list drops its last entry.
	from := at
	if at < 0 {
		if cnt < sh.sigma {
			if cnt == int(u.cap) {
				n.grow(u)
			}
			cnt++
			u.n++
			l = n.list(u)
		}
		from = cnt - 1
	}
	copy(l[r+1:from+1], l[r:from])
	l[r] = key
	u.scanFrom = min(u.scanFrom, int32(r))
	if u == &n.self {
		copy(n.via[r+1:from+1], n.via[r:from])
		n.via[r] = via
	}
	switch {
	case x != nil:
		if sl.key == 0 {
			x.used++
		}
		*sl = idxSlot{key: keySrc(key) + 1, dist: keyDist(key)}
		if 2*x.used > len(x.slots) {
			n.reindex(u)
		}
	case cnt > shortScan:
		n.reindex(u)
	}
	if sh.sched == FIFO {
		n.enqueue(u, keySrc(key))
	}
	return true
}

// announce selects this round's announcement into u.emit, if any, and
// reports whether the unit has more to announce after it.
//
//pde:hotpath
func (n *nodeProc) announce(u *unit) (emitted, more bool) {
	sh := n.sh
	if u.sentCnt >= sh.capLimit {
		return false, false
	}
	l := n.list(u)
	pick := -1
	switch sh.sched {
	case FIFO:
		if u.ext == 0 {
			return false, false
		}
		x := &n.exts[u.ext-1]
		for pick < 0 && len(x.fifo) > 0 {
			s := x.fifo[0]
			x.fifo = x.fifo[1:]
			for i, k := range l {
				if keySrc(k) == s {
					if k&sentBit == 0 { // else a stale queue entry
						pick = i
					}
					break
				}
			}
		}
		more = len(x.fifo) > 0
	case Priority:
		// Announce the pending pair minimizing delay(src) + dist, the
		// random-delay BFS order of [14].
		var bestKey int64
		unsent := 0
		for i, k := range l {
			if k&sentBit != 0 {
				continue
			}
			unsent++
			key := int64(keyDist(k))
			if sh.p.Delays != nil {
				key += int64(sh.p.Delays[keySrc(k)])
			}
			if pick < 0 || key < bestKey {
				pick = i
				bestKey = key
			}
		}
		more = unsent > 1
	default: // LexSmallest: the first unannounced key from scanFrom on
		i := int(u.scanFrom)
		for ; i < len(l) && l[i]&sentBit != 0; i++ {
		}
		if i < len(l) {
			pick = i
			for i++; i < len(l) && l[i]&sentBit != 0; i++ {
			}
			more = i < len(l)
		}
		// Everything before i is announced, the pick included.
		u.scanFrom = int32(i)
	}
	if pick < 0 {
		return false, false
	}
	l[pick] |= sentBit
	u.sentCnt++
	u.emit = l[pick]
	return true, more && u.sentCnt < sh.capLimit
}

// Init announces the node's own source, if it is one. The node's units,
// lines and list windows were laid out by Arena.layout before the engine
// started, so that no round allocates.
func (n *nodeProc) Init(ctx *congest.Ctx) {
	if v := ctx.Node(); n.sh.p.IsSource[v] {
		n.insert(&n.self, pack(0, int32(v)), -1)
	}
	n.emitPhase(ctx)
}

// Round integrates last round's emissions (real and local), then emits.
// Every unit sees its inserts in a fixed order — self: the inbox, then
// cell 0 of each line in port order; cell j: cell j-1 (self for cell 0),
// then cell j+1 (the inbox for the boundary cell, which comes first) —
// because the first of two equal pairs wins Via, and FIFO announces in
// arrival order. Walking the emitting cells of a line in ascending order
// keeps it: cell j hears from j-1 when bit j-1 is visited and from j+1
// when bit j+1 is, and the cells skipped are the ones that said nothing.
//
// A relay cell forwards one way. Its entry came from one neighbour (the
// high bit says which) and its announcement is inserted only into the
// other: the neighbour it came from announced the pair one hop closer and
// lists only improve, so that neighbour either still holds the source
// closer, or has evicted it and is full with a last key below the pair —
// either way the insert skipped would have been rejected.
//
//pde:hotpath
func (n *nodeProc) Round(ctx *congest.Ctx) {
	self := &n.self
	for _, in := range ctx.In() {
		m := in.Msg.(*pairMsg)
		es := &n.edges[in.Port] // not an excluded edge: neither end sends on one
		if last := len(es.cells) - 1; last < 0 {
			n.insert(self, pack(m.dist+1, m.src), int32(in.From))
		} else if n.insert(&es.cells[last], pack(m.dist+1, m.src)|highBit, -1) {
			es.touch(last)
		}
	}
	for p := range n.edges {
		es := &n.edges[p]
		c := es.cells
		if len(c) == 0 {
			continue
		}
		if n.selfEmit && n.insert(&c[0], hop(self.emit), -1) {
			es.touch(0)
		}
		for w, word := range es.emitting {
			for ; word != 0; word &= word - 1 {
				j := w<<6 + bits.TrailingZeros64(word)
				k := c[j].emit
				switch {
				case k&highBit == 0:
					// Outward; the boundary cell's went over the wire.
					if j+1 < len(c) && n.insert(&c[j+1], hop(k), -1) {
						es.touch(j + 1)
					}
				case j == 0:
					n.insert(self, hop(k), int32(ctx.Neighbors()[p].To))
				default:
					if n.insert(&c[j-1], hop(k)|highBit, -1) {
						es.touch(j - 1)
					}
				}
			}
		}
	}
	// Self emissions that go directly over zero-cell edges arrive as real
	// messages (handled above); nothing else to integrate.
	n.emitPhase(ctx)
}

// emitPhase picks this round's announcement of self and of every hot
// cell, sends the boundary crossings as real messages, and leaves hot
// only the cells that still have something to announce.
//
//pde:hotpath
func (n *nodeProc) emitPhase(ctx *congest.Ctx) {
	par := ctx.Round() & 1
	self := &n.self
	var wake bool
	if n.selfEmit, wake = n.announce(self); n.selfEmit {
		n.selfWire[par] = msg(self.emit)
		wake = true
	}
	for p := range n.edges {
		es := &n.edges[p]
		c := es.cells
		if len(c) == 0 {
			// This side owns no cells: self's emission crosses the edge.
			if n.selfEmit && !es.excluded {
				ctx.Send(p, &n.selfWire[par])
			}
			continue
		}
		var busy uint64
		for w, word := range es.hot {
			var emitting uint64
			for rest := word; rest != 0; rest &= rest - 1 {
				b := bits.TrailingZeros64(rest)
				emitted, more := n.announce(&c[w<<6+b])
				if emitted {
					emitting |= 1 << b
				}
				if !more {
					word &^= 1 << b
				}
			}
			es.emitting[w], es.hot[w] = emitting, word
			busy |= emitting | word
		}
		if busy == 0 {
			continue
		}
		wake = true
		// The boundary cell's emission crosses the real edge.
		if last := len(c) - 1; es.emitting[last>>6]>>(last&63)&1 != 0 {
			es.wire[par] = msg(c[last].emit)
			ctx.Send(p, &es.wire[par])
		}
	}
	if wake {
		ctx.WakeNext()
	}
}

// budget returns the round budget detection uses for the given instance:
// h + min(σ, |S|) + 1 plus any configured slack — the R(h, σ) bound of
// [10] that Theorem 3.3 plugs in.
func budget(p Params) int {
	nsrc := 0
	for _, s := range p.IsSource {
		if s {
			nsrc++
		}
	}
	return p.H + min(p.Sigma, nsrc) + 1 + p.ExtraRounds
}

// Arena is the storage of a run: every relay cell, every list window and
// every line's bitsets, in three slabs without a pointer in them; the node
// states, their lines and procs; and the congest.Engine the run steps on.
// The zero value is ready. A caller that runs many instances (one
// core.Build worker) keeps one and runs them through it one after the
// other: everything is sized per run by a pass over the edges, reused
// when it is large enough, and freed with the Arena. Nothing a Result
// holds points into it.
type Arena struct {
	cells  []unit
	keys   []uint64 // every line's two bitsets, then every unit's window
	via    []int32  // every real node's Via window
	states []nodeProc
	edges  []edgeSim
	procs  []congest.Proc
	sh     shared
	eng    congest.Engine
	rs     repairScratch
}

// resize returns s with length n, reallocated only if it is too small.
// The contents are whatever the last run left.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// ownCells returns how many relay cells of edge e node v simulates under
// sh, or -1 if the edge is longer than the hop bound and excluded. The
// lower endpoint owns cells 1..ℓ/2 of the line; the higher owns the rest.
func (sh *shared) ownCells(v int, e graph.Edge) int {
	length := sh.p.Length(e.W)
	if pack(length, 0) >= sh.beyond {
		return -1
	}
	if v < e.To {
		return int(length / 2)
	}
	return int(length - 1 - length/2)
}

// layout gives every node of g a fresh state under a.sh and its share of
// the arena: per line a span of cells (ordered by distance from the node)
// and two bitsets, per unit a list window of min(σ, reserveEntries) keys,
// per node a Via window.
func (a *Arena) layout(g *graph.Graph) {
	sh := &a.sh
	reserve := min(sh.sigma, reserveEntries)
	n := g.N()
	nCells, nBits, nEdges := 0, 0, 0
	for v := range n {
		nbrs := g.Neighbors(v)
		nEdges += len(nbrs)
		for _, e := range nbrs {
			if c := sh.ownCells(v, e); c > 0 {
				nCells += c
				nBits += 2 * ((c + 63) >> 6)
			}
		}
	}
	a.cells = resize(a.cells, nCells)
	a.keys = resize(a.keys, nBits+(n+nCells)*reserve)
	a.via = resize(a.via, n*reserve)
	a.states = resize(a.states, n)
	a.edges = resize(a.edges, nEdges)
	a.procs = resize(a.procs, n)
	cells, bitsets, lists, via, edges := a.cells, a.keys[:nBits], a.keys[nBits:], a.via, a.edges
	clear(bitsets)
	for v := range a.states {
		st := &a.states[v]
		nbrs := g.Neighbors(v)
		*st = nodeProc{
			sh:   sh,
			self: unit{cap: int32(reserve)},
			via:  via[:reserve:reserve],
			// The last run's exts are overwritten as this one appends.
			exts:  st.exts[:0],
			edges: edges[:len(nbrs):len(nbrs)],
		}
		via, edges = via[reserve:], edges[len(nbrs):]
		off := reserve
		for p, e := range nbrs {
			es := &st.edges[p]
			c := sh.ownCells(v, e)
			if c <= 0 {
				*es = edgeSim{excluded: c < 0}
				continue
			}
			w := (c + 63) >> 6
			*es = edgeSim{cells: cells[:c:c], emitting: bitsets[:w:w], hot: bitsets[w : 2*w : 2*w]}
			cells, bitsets = cells[c:], bitsets[2*w:]
			for j := range es.cells {
				es.cells[j] = unit{off: int32(off), cap: int32(reserve)}
				off += reserve
			}
		}
		st.keys, lists = lists[:off:off], lists[off:]
		a.procs[v] = st
	}
}

// Run executes one (S, h, σ)-detection instance and returns each node's
// output list. Of cfg it takes only the bandwidth B.
func Run(g *graph.Graph, p Params, cfg congest.Config) (*Result, error) {
	return new(Arena).Run(g, p, cfg.B)
}

// Run is the package's Run with the units' storage taken from a, under
// bandwidth b (0: the engine's default). The run is given budget(p)
// rounds.
func (a *Arena) Run(g *graph.Graph, p Params, b int) (*Result, error) {
	met, err := a.exec(g, p, b, budget(p))
	if err != nil {
		return nil, err
	}
	// The output is cut from two slabs: the keys, and the int32s — the
	// SelfEmits, then every page's offsets followed by its Vias.
	n := g.N()
	np := (n + PageRows - 1) >> PageShift
	total := 0
	for v := range a.states {
		total += int(a.states[v].self.n)
	}
	keys := make([]uint64, total)
	ints := make([]int32, n+np*(PageRows+1)+total)
	res := &Result{
		Pages:     make([]Page, np),
		Flags:     p.Flags,
		SelfEmits: ints[:n:n],
		Metrics:   met,
	}
	ints = ints[n:]
	for pi := range res.Pages {
		off := (*[PageRows + 1]int32)(ints)
		ints = ints[PageRows+1:]
		lo := pi << PageShift
		k := 0
		for r := range PageRows {
			if v := lo + r; v < n {
				st := &a.states[v]
				for i, key := range st.list(&st.self) {
					keys[k], ints[k] = pageKey(key), st.via[i]
					k++
				}
				res.SelfEmits[v] = st.self.sentCnt
			}
			off[r+1] = int32(k)
		}
		res.Pages[pi] = Page{Off: off, Keys: keys[:k:k], Vias: ints[:k:k]}
		keys, ints = keys[k:], ints[k:]
	}
	return res, nil
}

// exec validates p, lays the run out in a and runs it under bandwidth b
// (0: the engine's default) for the given number of rounds; the node
// states hold its outcome until the next run.
func (a *Arena) exec(g *graph.Graph, p Params, b, rounds int) (*congest.Metrics, error) {
	n := g.N()
	if len(p.IsSource) != n {
		return nil, fmt.Errorf("detection: IsSource has %d entries for %d nodes", len(p.IsSource), n)
	}
	if p.Flags != nil && len(p.Flags) != n {
		return nil, fmt.Errorf("detection: Flags has %d entries for %d nodes", len(p.Flags), n)
	}
	if p.Delays != nil && len(p.Delays) != n {
		return nil, fmt.Errorf("detection: Delays has %d entries for %d nodes", len(p.Delays), n)
	}
	if p.H < 0 || p.Sigma < 0 {
		return nil, fmt.Errorf("detection: negative H=%d or Sigma=%d", p.H, p.Sigma)
	}
	if p.H >= math.MaxInt32 || n > math.MaxInt32 {
		return nil, fmt.Errorf("detection: H=%d or n=%d is beyond the 31 bits a packed (dist, src) key gives each", p.H, n)
	}
	if !(p.Base >= 0) || math.IsInf(p.Base, 1) {
		return nil, fmt.Errorf("detection: rounding base %v must be zero, or positive and finite", p.Base)
	}
	sched := p.Scheduling
	if sched == 0 {
		sched = LexSmallest
	}
	// sentCnt is 32 bits wide; no unit announces 2³⁰ times in a run, so
	// that is "no cap", and a σ whose σ(σ+1)/2 is beyond it caps nothing.
	capLimit := int64(1) << 30
	if s := int64(p.Sigma); p.CapMessages && s < 1<<16 {
		capLimit = min(capLimit, s*(s+1)/2)
	}
	a.sh = shared{p: p, sigma: p.Sigma, beyond: pack(int32(p.H)+1, 0), capLimit: int32(capLimit), sched: sched}
	a.layout(g)
	return a.eng.Run(g, a.procs, congest.Config{B: b, MaxRounds: rounds})
}

// BruteForce computes the exact (S, h, σ)-detection answer centrally, for
// verification: virtual hop distances are shortest paths under the edge
// lengths p.Length. Entries carry Via = -1 (routing is not part of the
// spec).
func BruteForce(g *graph.Graph, p Params) [][]Entry {
	n := g.N()
	// Rebuild the graph with the virtual lengths as weights; shortest
	// paths in it are virtual hop distances.
	b := graph.NewBuilder(n)
	g.Edges(func(u, v int, w graph.Weight, _ int32) {
		b.AddEdge(u, v, graph.Weight(p.Length(w)))
	})
	vg := b.MustBuild()
	lists := make([][]Entry, n)
	for v := range lists {
		lists[v] = []Entry{}
	}
	for s := 0; s < n; s++ {
		if !p.IsSource[s] {
			continue
		}
		var flag uint8
		if p.Flags != nil {
			flag = p.Flags[s]
		}
		sp := graph.Dijkstra(vg, s)
		for v := 0; v < n; v++ {
			if sp.Dist[v] <= graph.Weight(p.H) {
				lists[v] = append(lists[v], Entry{Dist: int32(sp.Dist[v]), Src: int32(s), Via: -1, Flag: flag})
			}
		}
	}
	for v := range lists {
		sort.Slice(lists[v], func(i, j int) bool {
			if lists[v][i].Dist != lists[v][j].Dist {
				return lists[v][i].Dist < lists[v][j].Dist
			}
			return lists[v][i].Src < lists[v][j].Src
		})
		if len(lists[v]) > p.Sigma {
			lists[v] = lists[v][:p.Sigma]
		}
	}
	return lists
}
