package core

import (
	"slices"

	"pde/internal/detection"
	"pde/internal/fingerprint"
)

// Fingerprint digests every output of the result — h′, the setup and
// budget rounds, each instance's base, budget and detection lists, and
// the combined output lists — into one FNV-1a value. Two builds produce
// the same fingerprint iff they produced bit-identical outputs (up to
// hash collisions), so every build pool width is checked against width 1
// by comparing fingerprints (TestParallelBuildFingerprintAcrossFamilies),
// a delta build against a cold one, and
// internal/bench/testdata/pins.json commits the value so CI catches
// cross-PR divergence. The measured work — active rounds, messages and
// per-node broadcasts — is not an output: a repaired instance did less of
// it than a cold run, with the same lists.
//
// Lists enter as one digest word per row, and each instance as one word
// over its rows' words. Both are memoized: an instance that Build reuses
// by pointer brings its word along, and a delta build from a digested
// prev digests only the rows that moved, in Lists and in each repaired
// instance. Results and instances are immutable once built; a digest
// taken before a caller mutates one does not see the mutation.
func (r *Result) Fingerprint() uint64 {
	f := fingerprint.New()
	f.I64(int64(r.HPrime))
	f.I64(int64(r.SetupRounds))
	f.I64(int64(r.BudgetRounds))
	for _, inst := range r.Instances {
		f.U64(inst.fingerprint(len(r.Lists)))
	}
	for _, w := range r.rowDigests() {
		f.U64(w)
	}
	return f.Sum()
}

// instDigest is an instance's digest word and the per-row words under it.
type instDigest struct {
	sum  uint64
	rows []uint64
}

// fingerprint returns the digest of the instance, whose lists are of n
// nodes, memoized: it is computed on the first call, and concurrent first
// callers compute the same value.
func (inst *Instance) fingerprint(n int) uint64 {
	d := inst.digest.Load()
	if d == nil {
		d = digestInstance(inst, n)
		inst.digest.Store(d)
	}
	return d.sum
}

// digestInstance digests every row of the instance afresh.
func digestInstance(inst *Instance, n int) *instDigest {
	rows := make([]uint64, n)
	var buf []detection.Entry
	for v := range rows {
		buf = inst.Det.List(v, buf)
		rows[v] = digestDetRow(buf)
	}
	return inst.seal(rows)
}

// seal folds the base, the detection budget and the row words into the
// instance's digest.
func (inst *Instance) seal(rows []uint64) *instDigest {
	f := fingerprint.New()
	f.F64(inst.Base)
	f.I64(int64(inst.Det.Metrics.BudgetRounds))
	for _, w := range rows {
		f.U64(w)
	}
	return &instDigest{sum: f.Sum(), rows: rows}
}

// carryDigest gives a repaired instance its digest when the instance it
// was repaired from has one: the rows outside the region, and the region
// rows the repair left as they were, are that one's. It leaves the digest
// for the first Fingerprint otherwise.
func (inst *Instance) carryDigest(from *Instance, region []int32) {
	old := from.digest.Load()
	if old == nil {
		return
	}
	rows := append([]uint64(nil), old.rows...)
	var buf []detection.Entry
	for _, v := range region {
		if !inst.Det.SameList(int(v), from.Det) {
			buf = inst.Det.List(int(v), buf)
			rows[v] = digestDetRow(buf)
		}
	}
	inst.digest.Store(inst.seal(rows))
}

// digestDetRow hashes one detection list: every (Dist, Src, Via, Flag).
func digestDetRow(l []detection.Entry) uint64 {
	f := fingerprint.New()
	for _, e := range l {
		f.I64(int64(e.Dist))
		f.I64(int64(e.Src))
		f.I64(int64(e.Via))
		f.I64(int64(e.Flag))
	}
	return f.Sum()
}

// rowDigests returns the memoized digest words of Lists, computing them on
// the first call.
func (r *Result) rowDigests() []uint64 {
	if rows := r.rows.Load(); rows != nil {
		return *rows
	}
	rows := make([]uint64, len(r.Lists))
	for v, l := range r.Lists {
		rows[v] = digestRow(l)
	}
	r.rows.Store(&rows)
	return rows
}

// carryRowDigests gives a delta build its row words when prev has them:
// an unmoved row's is prev's, and the moved rows (ascending) are digested
// again. It leaves them for the first Fingerprint otherwise.
func (r *Result) carryRowDigests(prev *Result, moved []int32) {
	old := prev.rows.Load()
	if old == nil {
		return
	}
	rows := slices.Clone(*old)
	for _, v := range moved {
		rows[v] = digestRow(r.Lists[v])
	}
	r.rows.Store(&rows)
}

// digestRow hashes one output list: every (Dist, Src, Via, Instance, Flag).
func digestRow(l []Estimate) uint64 {
	f := fingerprint.New()
	for _, e := range l {
		f.F64(e.Dist)
		f.I64(int64(e.Src))
		f.I64(int64(e.Via))
		f.I64(int64(e.Instance))
		f.I64(int64(e.Flag))
	}
	return f.Sum()
}
