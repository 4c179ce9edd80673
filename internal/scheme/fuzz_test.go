package scheme

import (
	"flag"
	"math/rand"
	"testing"

	"pde/internal/graph"
)

// step is one byte of FuzzDeltaChain's steps: a batch of k changes of
// kind, k in [1, 28].
func step(kind graph.ChangeKind, k int) byte {
	return byte(int(kind) + (k-1)*int(graph.ChangeKinds))
}

// FuzzDeltaChain holds Update to a cold BuildOn of the same spec on the
// same graph along a chain of seeded change batches (graph.RandomChanges)
// for every backend: at each step the updated instance serves the new
// graph with the cold build's fingerprint and Accounting, field by field
// (the stretch probe's taken-over sources among it), every backend's
// update takes the delta path exactly when the structure held, and a
// batch BuildOn refuses Update refuses too.
//
// An input is a seed for the spec and the draws, a backend (oracle, rtc,
// compact, or an oracle on churn-mixed's shard) and up to six steps, one
// byte each: kind byte%ChangeKinds, batch size 1+byte/ChangeKinds. Run
// over exactly the committed seeds, the chains must also draw every kind
// and take every path: for each backend a delta update that reuses some
// instances and re-detects others, a probe source taken over, a rebuild,
// a refused batch.
func FuzzDeltaChain(f *testing.F) {
	const seeds = 5
	f.Add(int64(3), uint8(0), []byte{step(graph.ChangeNudge, 1), step(graph.ChangeReweight, 2), step(graph.ChangeRaiseMax, 1),
		step(graph.ChangeLowerMax, 1), step(graph.ChangeNoOp, 1), step(graph.ChangeTwice, 1)})
	f.Add(int64(4), uint8(0), []byte{step(graph.ChangeInsert, 2), step(graph.ChangeRewire, 1), step(graph.ChangeNudge, 3), step(graph.ChangeDelete, 1),
		step(graph.ChangeDelete, 28), step(graph.ChangeDelete, 28)})
	f.Add(int64(5), uint8(1), []byte{step(graph.ChangeNudge, 1), step(graph.ChangeInsert, 1)})
	f.Add(int64(7), uint8(2), []byte{step(graph.ChangeNudge, 1), step(graph.ChangeRewire, 1)})
	f.Add(int64(11), uint8(3), []byte{step(graph.ChangeNudge, 4), step(graph.ChangeNudge, 4), step(graph.ChangeReweight, 1)})
	var kinds [graph.ChangeKinds]int
	mixed := map[string]int{}
	var probes, rebuilds, refused, ran int
	f.Cleanup(func() {
		if fz := flag.Lookup("test.fuzz"); ran != seeds || fz.Value.String() != "" {
			return
		}
		for k, n := range kinds {
			if n == 0 {
				f.Errorf("no seed draws a %v batch", graph.ChangeKind(k))
			}
		}
		if mixed["oracle"] == 0 || mixed["rtc"] == 0 || mixed["compact"] == 0 || probes == 0 || rebuilds == 0 || refused == 0 {
			f.Errorf("the seeds leave a path untaken: mixed deltas %v, %d probe sources taken over, %d rebuilds, %d refused", mixed, probes, rebuilds, refused)
		}
	})
	f.Fuzz(func(t *testing.T, seed int64, backend uint8, steps []byte) {
		sp := [...]Spec{oracleSpec(), rtcSpec(), compactSpec(), churnSpec()}[backend%4]
		sp.Seed = seed
		inst := mustBuild(t, sp)
		rng := rand.New(rand.NewSource(seed))
		for i, b := range steps[:min(len(steps), 6)] {
			kind, k := graph.ChangeKind(b)%graph.ChangeKinds, 1+int(b)/int(graph.ChangeKinds)
			kinds[kind]++
			g2, sum, err := inst.Graph().ApplyChanges(graph.RandomChanges(inst.Graph(), kind, k, rng))
			if kind == graph.ChangeTwice {
				if err == nil {
					t.Fatalf("step %d: ApplyChanges took an edge changed twice", i)
				}
				continue
			}
			if err != nil {
				t.Fatalf("step %d (%d× %v): %v", i, k, kind, err)
			}
			cold, coldErr := BuildOn(sp, g2)
			next, st, err := Update(inst, g2)
			if (err == nil) != (coldErr == nil) {
				t.Fatalf("step %d (%d× %v): Update error %v, BuildOn error %v", i, k, kind, err, coldErr)
			}
			if err != nil {
				refused++
				continue
			}
			path := "rebuild"
			if !sum.TopologyChanged {
				path = "delta"
			}
			if st.Path != path || st.InstancesRebuilt+st.InstancesReused != st.InstancesTotal || next.Graph() != g2 {
				t.Fatalf("step %d (%d× %v): stats %+v, want path %s; serves the new graph: %v", i, k, kind, st, path, next.Graph() == g2)
			}
			if got, want := next.Fingerprint(), cold.Fingerprint(); got != want {
				t.Fatalf("step %d (%d× %v): fingerprint %016x, cold build %016x", i, k, kind, got, want)
			}
			if got, want := next.Accounting(), cold.Accounting(); got != want {
				t.Fatalf("step %d (%d× %v, %d probe sources taken over): accounting %+v, cold build %+v", i, k, kind, st.ProbesReused, got, want)
			}
			if st.InstancesReused > 0 && st.InstancesRebuilt > 0 {
				mixed[inst.Scheme()]++
			}
			if st.Path == "rebuild" {
				rebuilds++
			}
			probes += st.ProbesReused
			inst = next
		}
		ran++
	})
}
