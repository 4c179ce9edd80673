// Package detection implements the (S, h, σ)-detection substrate the paper
// builds on: the unweighted source-detection algorithm of Lenzen–Peleg [10]
// with the paper's Lemma 3.4 message cap, generalized to run on the virtual
// subdivided graphs G_i of §3.
//
// In G_i every edge e of the real network becomes a path of ℓ(e) unit
// edges. The relay nodes of such a path are simulated by the two real
// endpoints (each owns its half), and only the emission that crosses the
// midpoint of the line is charged as a real CONGEST message — exactly the
// simulation the paper's round accounting assumes. Relay cells run the same
// detection logic as real nodes. A node lays all the cells it owns out in
// one slab when the run starts, but a round only visits the stretch of each
// line where something was announced or is waiting to be, so an idle cell
// costs memory and no time. Edges with ℓ(e) > h are excluded: no source
// within h virtual hops can be detected through them, so outputs are
// unchanged.
package detection

import (
	"fmt"
	"math/bits"
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
	// sampling level, §4.3); they ride along in every message about the
	// source. May be nil.
	Flags []uint8
	// H is the hop bound h, counted in virtual hops of the subdivided
	// graph.
	H int
	// Sigma is σ, the number of closest sources to detect.
	Sigma int
	// Lengths[edgeID] is the subdivided length ℓ(e) >= 1 of each edge.
	// Nil means all ones (plain unweighted detection on the real graph).
	Lengths []int32
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

// Entry is one detected source at a node.
type Entry struct {
	// Dist is the virtual hop distance to the source (its weighted
	// meaning is Dist·b(i) on instance G_i).
	Dist int32
	// Src is the source node.
	Src int32
	// Via is the real neighbor from which the best pair arrived
	// (the next hop toward Src), or -1 for the node's own entry.
	Via int32
	// Flag carries the source's metadata bits.
	Flag uint8
}

// Result is the output of one detection run.
type Result struct {
	// Lists[v] is v's output list: up to σ entries sorted by (Dist, Src).
	Lists [][]Entry
	// SelfEmits[v] counts the announcements made by v's own unit: the
	// "broadcasts" of Lemma 3.4.
	SelfEmits []int64
	// Budget is the round budget the run was given.
	Budget int
	// Metrics is the CONGEST execution accounting.
	Metrics *congest.Metrics
}

// Lookup returns v's entry for source s, if present.
func (r *Result) Lookup(v int, s int32) (Entry, bool) {
	for _, e := range r.Lists[v] {
		if e.Src == s {
			return e, true
		}
	}
	return Entry{}, false
}

// pairMsg is the on-wire format: one (distance, source) pair plus the
// source's flag bits.
type pairMsg struct {
	dist int32
	src  int32
	flag uint8
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

// entry is a unit's knowledge about one source.
type entry struct {
	dist int32
	src  int32
	via  int32
	flag uint8
	sent bool // announced at the current dist; an improvement clears it
}

// reserveEntries bounds the list capacity every unit is handed from its
// node's slab in Init. With σ ≤ reserveEntries a list never reallocates;
// a longer one (APSP has σ = n) doubles from here in unit.grow, so relay
// cells that stay short never pay for σ slots.
const reserveEntries = 16

// shortScan is the list length up to which looking a source up by walking
// the list beats a hash probe; a list that outgrows it gets a srcIndex.
const shortScan = 32

// unit is one node of the virtual graph: either a real node or a relay
// cell on a subdivided edge. Entries are kept sorted by (dist, src) and
// capped at σ: an entry crowded out of the top σ can, by the domination
// argument behind Lemma 3.4, never matter to this unit's neighbors.
type unit struct {
	entries  []entry
	scanFrom int32
	sentCnt  int32
	emit     pairMsg // last emitPhase's announcement, valid while hasEmit
	hasEmit  bool
	idx      *srcIndex // nil until the list outgrows shortScan
	fifo     []int32
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

// reindex rebuilds u's index from its list, at a quarter load or less.
func (u *unit) reindex() {
	want := 4 * shortScan
	for want < 4*len(u.entries) {
		want <<= 1
	}
	if u.idx == nil {
		u.idx = &srcIndex{}
	}
	x := u.idx
	if len(x.slots) < want {
		x.slots = make([]idxSlot, want)
		x.log2 = uint8(bits.TrailingZeros(uint(want)))
	} else {
		clear(x.slots)
	}
	x.used = len(u.entries)
	for i := range u.entries {
		*x.slot(u.entries[i].src) = idxSlot{key: u.entries[i].src + 1, dist: u.entries[i].dist}
	}
}

// grow doubles the list's capacity, up to σ.
func (u *unit) grow(sigma int) {
	grown := make([]entry, len(u.entries), min(2*cap(u.entries), sigma))
	copy(grown, u.entries)
	u.entries = grown
}

// enqueue records a changed source in FIFO arrival order.
func (u *unit) enqueue(s int32) { u.fifo = append(u.fifo, s) }

// rank returns how many of the first n entries sort before (d, s).
//
//pde:hotpath
func (u *unit) rank(d, s int32, n int) int {
	lo := 0
	for hi := n; lo < hi; {
		m := int(uint(lo+hi) >> 1)
		if e := &u.entries[m]; e.dist < d || (e.dist == d && e.src < s) {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo
}

// insert merges a received pair (already incremented for the hop) and
// reports whether anything changed. The tests run cheapest first: the hop
// bound, then a full list's last key, and only then the search for the
// source's present entry.
//
//pde:hotpath
func (u *unit) insert(d, s, via int32, flag uint8, sh *shared) bool {
	if d > sh.h {
		return false
	}
	n := len(u.entries)
	if n == sh.sigma {
		// Either s is held at ≤ d, or (d, s) ranks beyond σ.
		if n == 0 {
			return false
		}
		if last := &u.entries[n-1]; last.dist < d || (last.dist == d && last.src <= s) {
			return false
		}
	}
	// Locate an existing entry for s.
	at := -1
	var sl *idxSlot
	if u.idx != nil {
		if sl = u.idx.slot(s); sl.key != 0 {
			if sl.dist <= d {
				return false
			}
			if i := u.rank(sl.dist, s, n); i < n && u.entries[i].src == s {
				at = i
			}
		}
	} else {
		for i := range u.entries {
			if u.entries[i].src == s {
				if u.entries[i].dist <= d {
					return false
				}
				at = i
				break
			}
		}
	}
	e := entry{dist: d, src: s, via: via, flag: flag}
	if at >= 0 {
		// Improvement: move the entry up to its new rank.
		i := u.rank(d, s, at)
		copy(u.entries[i+1:at+1], u.entries[i:at])
		u.entries[i] = e
		u.scanFrom = min(u.scanFrom, int32(i))
	} else {
		u.place(e, sh.sigma)
	}
	switch {
	case sl != nil:
		if sl.key == 0 {
			u.idx.used++
		}
		*sl = idxSlot{key: s + 1, dist: d}
		if 2*u.idx.used > len(u.idx.slots) {
			u.reindex()
		}
	case len(u.entries) > shortScan:
		u.reindex()
	}
	if sh.sched == FIFO {
		u.enqueue(s)
	}
	return true
}

// place inserts a new source's entry at its sorted rank, which insert has
// already shown to be below σ; a full list drops its last entry.
//
//pde:hotpath
func (u *unit) place(e entry, sigma int) {
	n := len(u.entries)
	i := u.rank(e.dist, e.src, n)
	if n < sigma {
		if n == cap(u.entries) {
			u.grow(sigma)
		}
		n++
		u.entries = u.entries[:n]
	}
	copy(u.entries[i+1:n], u.entries[i:n-1])
	u.entries[i] = e
	u.scanFrom = min(u.scanFrom, int32(i))
}

// pickEmit selects this round's announcement into u.emit, if any.
//
//pde:hotpath
func (u *unit) pickEmit(sh *shared) bool {
	if u.sentCnt >= sh.capLimit {
		return false
	}
	pick := -1
	switch sh.sched {
	case FIFO:
		for pick < 0 && len(u.fifo) > 0 {
			s := u.fifo[0]
			u.fifo = u.fifo[1:]
			for i := range u.entries {
				if u.entries[i].src == s {
					if !u.entries[i].sent { // else a stale queue entry
						pick = i
					}
					break
				}
			}
		}
	case Priority:
		// Announce the pending pair minimizing delay(src) + dist, the
		// random-delay BFS order of [14].
		var bestKey int64
		for i := range u.entries {
			e := &u.entries[i]
			if e.sent {
				continue
			}
			key := int64(e.dist)
			if sh.p.Delays != nil {
				key += int64(sh.p.Delays[e.src])
			}
			if pick < 0 || key < bestKey {
				pick = i
				bestKey = key
			}
		}
	default: // LexSmallest
		for i := int(u.scanFrom); i < len(u.entries); i++ {
			if !u.entries[i].sent {
				pick = i
				break
			}
			if int32(i) == u.scanFrom {
				u.scanFrom++
			}
		}
	}
	if pick < 0 {
		return false
	}
	e := &u.entries[pick]
	e.sent = true
	u.sentCnt++
	u.emit = pairMsg{dist: e.dist, src: e.src, flag: e.flag}
	return true
}

// pending reports whether the unit still has unannounced work.
//
//pde:hotpath
func (u *unit) pending(sh *shared) bool {
	if u.sentCnt >= sh.capLimit {
		return false
	}
	from := 0
	switch sh.sched {
	case FIFO:
		return len(u.fifo) > 0
	case LexSmallest:
		from = int(u.scanFrom) // everything before it is announced
	}
	for i := from; i < len(u.entries); i++ {
		if !u.entries[i].sent {
			return true
		}
	}
	return false
}

// shared is the run-wide immutable configuration all node procs read.
type shared struct {
	p        Params
	sigma    int
	h        int32
	capLimit int32
	sched    Scheduling
}

// edgeSim is one real edge's virtual line as seen from one endpoint: the
// endpoint's own relay cells ordered by distance from it. cells[len-1] is
// the boundary cell whose emission crosses the real edge.
type edgeSim struct {
	excluded bool
	cells    []unit // a span of the node's cell slab
	// [lo, hi) is the line's hot range: it covers every cell that emitted
	// in the last emitPhase or still holds unannounced entries, plus every
	// cell an insert has changed since. Cells outside it are idle — no
	// emission to integrate, nothing to announce — and are not visited.
	// Empty is lo = len(cells), hi = 0.
	lo, hi int32
	// wire double-buffers the boundary emission that crosses the real
	// edge, indexed by round parity, so sends need no allocation.
	wire [2]pairMsg
}

// touch widens the hot range to cell j.
//
//pde:hotpath
func (es *edgeSim) touch(j int) {
	es.lo = min(es.lo, int32(j))
	es.hi = max(es.hi, int32(j)+1)
}

type nodeProc struct {
	sh   *shared
	self unit
	// selfWire double-buffers self's emission for zero-cell edges.
	selfWire [2]pairMsg
	edges    []edgeSim
}

// Init lays the node's virtual units out in two slabs — one of cells, one
// of list storage — so that a steady-state round allocates nothing.
func (n *nodeProc) Init(ctx *congest.Ctx) {
	v := ctx.Node()
	sh := n.sh
	n.edges = make([]edgeSim, ctx.Degree())
	total := 0
	for p, e := range ctx.Neighbors() {
		length := int32(1)
		if sh.p.Lengths != nil {
			length = sh.p.Lengths[e.ID]
		}
		es := &n.edges[p]
		if int(length) > int(sh.h) {
			es.excluded = true
			continue
		}
		// Lower endpoint owns cells 1..ℓ/2 of the line; the higher owns
		// the rest. Both sides order their cells by distance from self.
		// The count waits in lo, where it also says "empty range".
		if v < e.To {
			es.lo = length / 2
		} else {
			es.lo = length - 1 - length/2
		}
		total += int(es.lo)
	}
	cells := make([]unit, total)
	reserve := min(sh.sigma, reserveEntries)
	lists := make([]entry, (total+1)*reserve)
	n.self.entries = lists[:0:reserve]
	for j := range cells {
		cells[j].entries = lists[(j+1)*reserve : (j+1)*reserve : (j+2)*reserve]
	}
	for p := range n.edges {
		es := &n.edges[p]
		es.cells, cells = cells[:es.lo:es.lo], cells[es.lo:]
	}
	if sh.p.IsSource[v] {
		var flag uint8
		if sh.p.Flags != nil {
			flag = sh.p.Flags[v]
		}
		n.self.insert(0, int32(v), -1, flag, sh)
	}
	n.emitPhase(ctx)
}

// Round integrates last round's emissions (real and local), then emits.
// Every unit sees its inserts in a fixed order — self: the inbox, then
// cell 0 of each line in port order; cell j: cell j-1 (self for cell 0),
// then cell j+1 (the inbox for the boundary cell, which comes first) —
// because the first of two equal pairs wins Via, and FIFO announces in
// arrival order. Restricting the walk to the hot range keeps that order:
// the iterations skipped are the ones that found nothing to insert.
//
//pde:hotpath
func (n *nodeProc) Round(ctx *congest.Ctx) {
	sh := n.sh
	self := &n.self
	for _, in := range ctx.In() {
		m := in.Msg.(*pairMsg)
		es := &n.edges[in.Port]
		if es.excluded {
			continue
		}
		if last := len(es.cells) - 1; last < 0 {
			self.insert(m.dist+1, m.src, int32(in.From), m.flag, sh)
		} else if es.cells[last].insert(m.dist+1, m.src, -1, m.flag, sh) {
			es.touch(last)
		}
	}
	for p := range n.edges {
		es := &n.edges[p]
		c := es.cells
		if len(c) == 0 || (es.lo >= es.hi && !self.hasEmit) {
			continue
		}
		lo, hi := int(es.lo), int(es.hi)
		if lo == 0 && c[0].hasEmit {
			m := &c[0].emit
			self.insert(m.dist+1, m.src, int32(ctx.Neighbors()[p].To), m.flag, sh)
		}
		if self.hasEmit {
			m := &self.emit
			if c[0].insert(m.dist+1, m.src, -1, m.flag, sh) {
				es.touch(0)
			}
		}
		// Only a cell in [lo, hi) can have emitted, so only iterations
		// lo..hi have anything to pass between cells j-1 and j.
		for j := max(lo, 1); j <= hi && j < len(c); j++ {
			if c[j].hasEmit {
				m := &c[j].emit
				if c[j-1].insert(m.dist+1, m.src, -1, m.flag, sh) {
					es.touch(j - 1)
				}
			}
			if c[j-1].hasEmit {
				m := &c[j-1].emit
				if c[j].insert(m.dist+1, m.src, -1, m.flag, sh) {
					es.touch(j)
				}
			}
		}
	}
	// Self emissions that go directly over zero-cell edges arrive as real
	// messages (handled above); nothing else to integrate.
	n.emitPhase(ctx)
}

// emitPhase picks this round's announcement of every unit in a hot range,
// sends the boundary crossings as real messages, and narrows each range
// to the cells that emitted or still have something to announce.
//
//pde:hotpath
func (n *nodeProc) emitPhase(ctx *congest.Ctx) {
	sh := n.sh
	par := ctx.Round() & 1
	self := &n.self
	self.hasEmit = self.pickEmit(sh)
	if self.hasEmit {
		n.selfWire[par] = self.emit
	}
	wake := self.hasEmit || self.pending(sh)
	for p := range n.edges {
		es := &n.edges[p]
		c := es.cells
		if len(c) == 0 {
			// This side owns no cells: self's emission crosses the edge.
			if self.hasEmit && !es.excluded {
				ctx.Send(p, &n.selfWire[par])
			}
			continue
		}
		lo, hi := len(c), 0
		for j := int(es.lo); j < int(es.hi); j++ {
			u := &c[j]
			u.hasEmit = u.pickEmit(sh)
			if u.hasEmit || u.pending(sh) {
				lo = min(lo, j)
				hi = j + 1
			}
		}
		es.lo, es.hi = int32(lo), int32(hi)
		if hi == 0 {
			continue
		}
		wake = true
		// The boundary cell's emission crosses the real edge.
		if last := &c[len(c)-1]; hi == len(c) && last.hasEmit {
			es.wire[par] = last.emit
			ctx.Send(p, &es.wire[par])
		}
	}
	if wake {
		ctx.WakeNext()
	}
}

// Budget returns the round budget detection uses for the given instance:
// h + min(σ, |S|) + 1 plus any configured slack — the R(h, σ) bound of
// [10] that Theorem 3.3 plugs in.
func Budget(p Params) int {
	nsrc := 0
	for _, s := range p.IsSource {
		if s {
			nsrc++
		}
	}
	return p.H + min(p.Sigma, nsrc) + 1 + p.ExtraRounds
}

// Run executes one (S, h, σ)-detection instance and returns each node's
// output list.
func Run(g *graph.Graph, p Params, cfg congest.Config) (*Result, error) {
	n := g.N()
	if len(p.IsSource) != n {
		return nil, fmt.Errorf("detection: IsSource has %d entries for %d nodes", len(p.IsSource), n)
	}
	if p.Flags != nil && len(p.Flags) != n {
		return nil, fmt.Errorf("detection: Flags has %d entries for %d nodes", len(p.Flags), n)
	}
	if p.H < 0 || p.Sigma < 0 {
		return nil, fmt.Errorf("detection: negative H=%d or Sigma=%d", p.H, p.Sigma)
	}
	if p.Lengths != nil {
		if len(p.Lengths) != g.M() {
			return nil, fmt.Errorf("detection: Lengths has %d entries for %d edges", len(p.Lengths), g.M())
		}
		for id, l := range p.Lengths {
			if l < 1 {
				return nil, fmt.Errorf("detection: edge %d has non-positive length %d", id, l)
			}
		}
	}
	sched := p.Scheduling
	if sched == 0 {
		sched = LexSmallest
	}
	capLimit := int32(1) << 30
	if p.CapMessages {
		capLimit = int32(p.Sigma) * int32(p.Sigma+1) / 2
	}
	sh := &shared{p: p, sigma: p.Sigma, h: int32(p.H), capLimit: capLimit, sched: sched}

	procs := make([]congest.Proc, n)
	states := make([]nodeProc, n)
	for v := 0; v < n; v++ {
		states[v] = nodeProc{sh: sh}
		procs[v] = &states[v]
	}
	// Derive the engine config explicitly: keep the caller's engine knobs
	// plus budget/observer, so nothing else ever leaks into the run.
	run := cfg.Sub()
	run.MaxRounds = cfg.MaxRounds
	if run.MaxRounds == 0 {
		run.MaxRounds = Budget(p)
	}
	run.Observer = cfg.Observer
	met, err := congest.Run(g, procs, run)
	if err != nil {
		return nil, err
	}
	res := &Result{
		Lists:     make([][]Entry, n),
		SelfEmits: make([]int64, n),
		Budget:    run.MaxRounds,
		Metrics:   met,
	}
	for v := 0; v < n; v++ {
		u := &states[v].self
		lst := make([]Entry, 0, len(u.entries))
		for _, e := range u.entries {
			lst = append(lst, Entry{Dist: e.dist, Src: e.src, Via: e.via, Flag: e.flag})
		}
		res.Lists[v] = lst
		res.SelfEmits[v] = int64(u.sentCnt)
	}
	return res, nil
}

// BruteForce computes the exact (S, h, σ)-detection answer centrally, for
// verification: virtual hop distances are shortest paths under the edge
// lengths. Entries carry Via = -1 (routing is not part of the spec).
func BruteForce(g *graph.Graph, p Params) [][]Entry {
	n := g.N()
	lengths := func(id int32) graph.Weight {
		if p.Lengths == nil {
			return 1
		}
		return graph.Weight(p.Lengths[id])
	}
	// Rebuild the graph with the virtual lengths as weights; shortest
	// paths in it are virtual hop distances.
	b := graph.NewBuilder(n)
	g.Edges(func(u, v int, _ graph.Weight, id int32) {
		b.AddEdge(u, v, lengths(id))
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
