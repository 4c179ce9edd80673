package core

import (
	"math/rand"
	"sync"
	"testing"

	"pde/internal/congest"
	"pde/internal/fingerprint"
	"pde/internal/graph"
)

// linearFingerprint is Result.Fingerprint as it was before the instances
// entered through memoized digests: one walk over the accounting and
// every instance's lists. It is the reference the re-pins are checked
// against — TestPinnedFingerprints holds each old constant to it, so the
// folds changed the hash, and a cold build's accounting is still held.
func linearFingerprint(r *Result) uint64 {
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
		f.I64(int64(inst.Det.Metrics.BudgetRounds))
		f.I64(int64(inst.Det.Metrics.ActiveRounds))
		for v, l := range detLists(inst.Det) {
			for _, e := range l {
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

// digested reports whether inst's digest was already computed.
func digested(inst *Instance) bool { return inst.digest.Load() != nil }

// memoSound fails unless every instance's memoized digest is what a fresh
// walk of its tables gives.
func memoSound(t *testing.T, label string, r *Result) {
	t.Helper()
	r.Fingerprint()
	for i, inst := range r.Instances {
		if got, want := inst.digest.Load().sum, digestInstance(inst, len(r.Lists)).sum; got != want {
			t.Errorf("%s: instance %d memoized digest %016x, fresh walk %016x", label, i, got, want)
		}
	}
}

// TestInstanceDigestMemo: the memo is sound after a cold build and after
// a patched one whose reused instances arrive with their digests already
// taken. (That a patched result fingerprints like a cold build of its
// graph is FuzzDeltaChain's to show.)
func TestInstanceDigestMemo(t *testing.T) {
	g := patchTestGraph(t, 7)
	p := patchTestParams(g.N())
	prev, err := Run(g, p, congest.Config{})
	if err != nil {
		t.Fatal(err)
	}
	memoSound(t, "run", prev)

	next, ps, err := Build(drawn(t, g, graph.ChangeNudge, 1, rand.New(rand.NewSource(7))), p, congest.Config{}, prev)
	if err != nil {
		t.Fatal(err)
	}
	if ps.InstancesReused == 0 || ps.InstancesRebuilt == 0 {
		t.Fatalf("want a patch that reuses some instances and rebuilds others, got %+v", ps)
	}
	memoSound(t, "patch", next)
}

// TestFingerprintConcurrentFirstCallers: eight goroutines racing to take
// a fresh result's first fingerprint agree with one another and with a
// serial call on an identical build (run under -race in CI).
func TestFingerprintConcurrentFirstCallers(t *testing.T) {
	g := graph.RandomConnected(40, 0.1, 32, rand.New(rand.NewSource(5)))
	p := APSPParams(g.N(), 0.5)
	build := func() *Result {
		res, err := Run(g, p, congest.Config{})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	want := build().Fingerprint()
	res := build()
	got := make([]uint64, 8)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i] = res.Fingerprint()
		}()
	}
	wg.Wait()
	for i, fp := range got {
		if fp != want {
			t.Errorf("caller %d: fingerprint %016x, serial %016x", i, fp, want)
		}
	}
}

// TestBuildTakesNoDigest: Build leaves every digest for the first
// Fingerprint, cold and patched alike — a build that digested eagerly
// would pay for hashing inside every timed cold build.
func TestBuildTakesNoDigest(t *testing.T) {
	g := patchTestGraph(t, 7)
	p := patchTestParams(g.N())
	prev, err := Run(g, p, congest.Config{Parallel: true, Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	next, _, err := Build(drawn(t, g, graph.ChangeNudge, 1, rand.New(rand.NewSource(7))), p, congest.Config{}, prev)
	if err != nil {
		t.Fatal(err)
	}
	for i, inst := range next.Instances {
		if digested(inst) {
			t.Errorf("instance %d was digested by Build", i)
		}
	}
}
