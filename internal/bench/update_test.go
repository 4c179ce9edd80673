package bench

import (
	"encoding/json"
	"strings"
	"testing"

	"pde/internal/scheme"
)

// smallUpdateScenario is a fast cell for tests: same shape as the real
// matrix, tiny instance, short stream.
func smallUpdateScenario() UpdateScenario {
	return UpdateScenario{
		Name:    "update_random-n48",
		Spec:    scheme.Spec{Topology: "random", N: 48, Eps: 0.5, MaxW: 64, Seed: 5, Scheme: "oracle", H: 12, Sigma: 8},
		Updates: 4,
	}
}

// TestRunUpdateScenario drives the full churn-stream path on a small
// instance: every step patched AND cold-rebuilt, fingerprints compared,
// delta accounting populated.
func TestRunUpdateScenario(t *testing.T) {
	rep, err := RunUpdateScenario(smallUpdateScenario())
	if err != nil {
		t.Fatalf("RunUpdateScenario: %v", err)
	}
	if rep.Schema != UpdateSchemaID {
		t.Fatalf("schema = %q, want %q", rep.Schema, UpdateSchemaID)
	}
	if !rep.Identical {
		t.Fatal("identical must be true — the runner fails otherwise")
	}
	if rep.Updates != 4 || rep.DeltaUpdates+rep.RebuildUpdates != rep.Updates {
		t.Fatalf("update accounting inconsistent: %+v", rep)
	}
	if rep.DeltaUpdates == 0 {
		t.Fatalf("seeded ±1 reweight stream took no delta path (avg damage %.3f): the scenario no longer exercises the patch tier", rep.AvgDamage)
	}
	if rep.AvgDamage <= 0 || rep.AvgDamage > 1 {
		t.Fatalf("avg damage %v out of (0,1]", rep.AvgDamage)
	}
	if rep.Instances <= 1 {
		t.Fatalf("instances = %d, want a real hierarchy", rep.Instances)
	}
	if rep.UpdateWallNS <= 0 || rep.RebuildWallNS <= 0 || rep.Speedup <= 0 {
		t.Fatalf("timing fields not populated: %+v", rep)
	}
	if rep.Fingerprint == "" || rep.Filename() != "BENCH_update_random-n48.json" {
		t.Fatalf("identity fields: fp=%q file=%q", rep.Fingerprint, rep.Filename())
	}
	data, err := rep.JSON()
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	var decoded map[string]any
	if err := json.Unmarshal(data, &decoded); err != nil {
		t.Fatalf("report is not valid JSON: %v", err)
	}
	for _, key := range []string{"schema", "fingerprint", "n", "m", "seed", "instances",
		"updates", "delta_updates", "identical", "update_wall_ns", "rebuild_wall_ns", "speedup"} {
		if _, ok := decoded[key]; !ok {
			t.Fatalf("report JSON is missing %q", key)
		}
	}
}

// TestUpdateReportBuildNSIsTheColdBuild pins build_ns to the initial
// construction. On a delta-only stream every step re-detects a strict
// subset of the rounding instances the cold build ran, so the cold build
// outlasts the slowest step; a build_ns read off the last patched
// generation (that patch's own time) cannot.
func TestUpdateReportBuildNSIsTheColdBuild(t *testing.T) {
	s := UpdateScenario{
		Name:    "update_roadgrid-12x12",
		Spec:    scheme.Spec{Topology: "roadgrid", N: 144, Eps: 0.5, MaxW: 1024, Seed: 5, Scheme: "oracle", H: 24, Sigma: 8},
		Updates: 4,
		Probe:   8,
	}
	rep, err := RunUpdateScenario(s)
	if err != nil {
		t.Fatal(err)
	}
	if rep.DeltaUpdates != rep.Updates {
		t.Fatalf("%d of %d steps took the delta path; the stream must be delta-only for the comparison to hold", rep.DeltaUpdates, rep.Updates)
	}
	if rep.MaxUpdateNS <= 0 || rep.MaxUpdateNS > rep.UpdateWallNS {
		t.Fatalf("max_update_ns %d outside (0, update_wall_ns %d]", rep.MaxUpdateNS, rep.UpdateWallNS)
	}
	if rep.BuildNS < rep.MaxUpdateNS {
		t.Fatalf("build_ns %d is below the slowest update step %d: it is not the cold build's time", rep.BuildNS, rep.MaxUpdateNS)
	}
}

// TestRunUpdateScenarioIsDeterministic pins the -check contract: the
// deterministic fields of two runs of the same scenario must agree
// exactly.
func TestRunUpdateScenarioIsDeterministic(t *testing.T) {
	a, err := RunUpdateScenario(smallUpdateScenario())
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunUpdateScenario(smallUpdateScenario())
	if err != nil {
		t.Fatal(err)
	}
	if a.Fingerprint != b.Fingerprint || a.DeltaUpdates != b.DeltaUpdates ||
		a.AvgDamage != b.AvgDamage || a.M != b.M {
		t.Fatalf("churn stream is not deterministic:\n%+v\n%+v", a, b)
	}
}

// TestRunUpdateScenarioRejectsNonUpdatable keeps the matrix honest: only
// schemes with a real delta path belong in BENCH_update_*.json.
func TestRunUpdateScenarioRejectsNonUpdatable(t *testing.T) {
	s := smallUpdateScenario()
	s.Spec = scheme.Spec{Topology: "random", N: 32, Eps: 1, MaxW: 8, Seed: 5, Scheme: "rtc", K: 2}
	if _, err := RunUpdateScenario(s); err == nil || !strings.Contains(err.Error(), "not updatable") {
		t.Fatalf("err = %v, want 'not updatable'", err)
	}
}

// TestUpdateScenarioNaming pins the matrix shape: names must map onto
// BENCH_update_*.json and every cell must be quick (the CI smoke subset
// pins the fingerprint-equivalence guarantee every PR).
func TestUpdateScenarioNaming(t *testing.T) {
	for _, s := range UpdateScenarios() {
		if !strings.HasPrefix(s.Name, "update_") {
			t.Fatalf("scenario %q must be named update_*", s.Name)
		}
		if !s.Quick {
			t.Fatalf("scenario %q must be in the quick subset", s.Name)
		}
		if s.Spec.Scheme != "oracle" {
			t.Fatalf("scenario %q: only oracle has a delta path", s.Name)
		}
	}
}
