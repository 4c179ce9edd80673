// Package fixture exercises the hotpathalloc analyzer: allocating
// constructs inside //pde:hotpath-marked functions.
package fixture

// answer is a stand-in for the serving-path record types.
type answer struct {
	dist float64
	ok   bool
}

// Positive: append can grow per frame.
//
//pde:hotpath
func hotAppend(out []answer, a answer) []answer {
	return append(out, a) // want `append in //pde:hotpath function hotAppend`
}

// Positive: make allocates on every call.
//
//pde:hotpath
func hotMake(n int) []answer {
	return make([]answer, n) // want `make in //pde:hotpath function hotMake`
}

// Positive: string([]byte) copies the payload.
//
//pde:hotpath
func hotString(payload []byte) string {
	return string(payload[2:]) // want `slice-to-string conversion in //pde:hotpath function hotString`
}

// Positive: []byte(string) copies too.
//
//pde:hotpath
func hotBytes(name string) []byte {
	return []byte(name) // want `string-to-slice conversion in //pde:hotpath function hotBytes`
}

// Positive: a closure declared inside a marked function runs on the
// same hot path; its allocations are flagged under the outer name.
//
//pde:hotpath
func hotClosure(outs [][]answer) func() {
	return func() {
		for i := range outs {
			outs[i] = make([]answer, 4) // want `make in //pde:hotpath function hotClosure`
		}
	}
}

// Negative: writing into caller-owned, pre-sized buffers is the
// blessed shape.
//
//pde:hotpath
func hotClean(qs []int32, out []answer) {
	for i, q := range qs {
		out[i] = answer{dist: float64(q), ok: q >= 0}
	}
}

// Negative: unmarked functions may allocate freely — growth helpers
// like arena.ensure live here on purpose.
func ensure(buf []byte, n int) []byte {
	if cap(buf) < n {
		buf = make([]byte, n)
	}
	return append(buf[:0], make([]byte, n)...)
}

// list is a stand-in for detection's per-unit entry list.
type list struct{ entries []answer }

// Negative: the detection shape — the marked function shifts in place
// inside capacity it already has and calls an unmarked helper to grow.
//
//pde:hotpath
func (l *list) hotPlace(i int, a answer) {
	n := len(l.entries)
	if n == cap(l.entries) {
		l.grow()
	}
	l.entries = l.entries[:n+1]
	copy(l.entries[i+1:], l.entries[i:n])
	l.entries[i] = a
}

func (l *list) grow() {
	grown := make([]answer, len(l.entries), 2*cap(l.entries)+1)
	copy(grown, l.entries)
	l.entries = grown
}

// Positive: the same insertion written with append reallocates whenever
// the list is at capacity.
//
//pde:hotpath
func (l *list) hotPlaceAppend(i int, a answer) {
	l.entries = append(l.entries, answer{}) // want `append in //pde:hotpath function hotPlaceAppend`
	copy(l.entries[i+1:], l.entries[i:])
	l.entries[i] = a
}

// Negative: conversions that only change the view, not the memory.
//
//pde:hotpath
func hotViews(k int64, payload []byte) (uint64, []byte) {
	return uint64(k), payload[2:]
}

// Suppressed: an audited exception on a cold sub-path keeps working.
//
//pde:hotpath
func hotAllowed(msg string) []byte {
	//pde:allow(hotpathalloc) error path: runs at most once per connection teardown
	return []byte(msg)
}
