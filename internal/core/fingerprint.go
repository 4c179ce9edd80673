package core

import "pde/internal/fingerprint"

// Fingerprint digests every deterministic component of the result — the
// round/message accounting, the per-node broadcast counters, each
// instance's base and detection output, and the combined output lists —
// into one FNV-1a value. Two runs produce the same fingerprint iff they
// produced bit-identical results (up to hash collisions), so every build
// pool width is checked against width 1 by comparing fingerprints
// (TestParallelBuildFingerprintAcrossFamilies), and
// internal/bench/testdata/pins.json commits the value so CI catches
// cross-PR divergence.
//
// The instances enter as one word each: their own digest, computed on the
// first call and memoized on the *Instance. An update that reuses most
// instances of the previous generation by pointer therefore hashes only
// the ones it re-detected, plus the header and the combined lists.
// Instances are immutable once built; a digest taken before a caller
// mutates one does not see the mutation.
func (r *Result) Fingerprint() uint64 {
	f := fingerprint.New()
	f.I64(int64(r.HPrime))
	f.I64(int64(r.SetupRounds))
	f.I64(int64(r.BudgetRounds))
	f.I64(int64(r.ActiveRounds))
	f.I64(r.Messages)
	f.I64(r.MessageBits)
	for _, b := range r.BroadcastsByNode {
		f.I64(b)
	}
	for _, inst := range r.Instances {
		f.U64(inst.fingerprint())
	}
	for v := range r.Lists {
		for _, e := range r.Lists[v] {
			f.I64(int64(v))
			f.F64(e.Dist)
			f.I64(int64(e.Src))
			f.I64(int64(e.Via))
			f.I64(int64(e.Instance))
			f.I64(int64(e.Flag))
		}
	}
	return f.Sum()
}

// fingerprint returns the instance's memoized digest, computing it on the
// first call; concurrent first callers wait for the one computation.
func (inst *Instance) fingerprint() uint64 {
	inst.digest.once.Do(func() { inst.digest.sum = digestInstance(inst) })
	return inst.digest.sum
}

// digestInstance hashes the base, the detection budget and active rounds,
// then every (v, Dist, Src, Via, Flag) of the detection lists.
func digestInstance(inst *Instance) uint64 {
	f := fingerprint.New()
	f.F64(inst.Base)
	f.I64(int64(inst.Det.Budget))
	f.I64(int64(inst.Det.Metrics.ActiveRounds))
	for v := range inst.Det.Lists {
		for _, e := range inst.Det.Lists[v] {
			f.I64(int64(v))
			f.I64(int64(e.Dist))
			f.I64(int64(e.Src))
			f.I64(int64(e.Via))
			f.I64(int64(e.Flag))
		}
	}
	return f.Sum()
}
