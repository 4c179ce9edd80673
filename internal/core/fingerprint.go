package core

import "pde/internal/fingerprint"

// Fingerprint digests every deterministic component of the result — the
// combined output lists, each instance's base and detection output, the
// round/message accounting and the per-node broadcast counters — into one
// FNV-1a value. Two runs produce the same fingerprint iff they produced
// bit-identical results (up to hash collisions), so the parallel build
// pipeline is *verified* against the sequential one by comparing
// fingerprints (TestParallelBuildFingerprintAcrossFamilies), and
// internal/bench/testdata/pins.json commits the value so CI catches
// cross-PR divergence.
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
