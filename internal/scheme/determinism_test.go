package scheme

import (
	"reflect"
	"testing"

	"pde/internal/core"
)

// coreResults returns the PDE results a backend's tables are built from.
func coreResults(in Instance) []*core.Result {
	switch in := in.(type) {
	case *OracleInstance:
		return []*core.Result{in.Res}
	case *RTCInstance:
		return []*core.Result{in.Sch.A, in.Sch.B}
	case *CompactInstance:
		rs := append([]*core.Result(nil), in.Sch.R...)
		return append(rs, in.Sch.SkelR)
	}
	return nil
}

// sameAccounting fails unless two builds did the same work, result by
// result: the fingerprint names outputs only, so rounds, messages and
// per-node broadcasts are compared field by field.
func sameAccounting(t *testing.T, label string, a, b Instance) {
	t.Helper()
	ra, rb := coreResults(a), coreResults(b)
	if len(ra) == 0 || len(ra) != len(rb) {
		t.Fatalf("%s: %d and %d core results", label, len(ra), len(rb))
	}
	for i := range ra {
		x, y := ra[i], rb[i]
		if (x == nil) != (y == nil) {
			t.Fatalf("%s: result %d present in one build only", label, i)
		}
		if x == nil {
			continue
		}
		if x.ActiveRounds != y.ActiveRounds || x.Messages != y.Messages || x.MessageBits != y.MessageBits ||
			!reflect.DeepEqual(x.BroadcastsByNode, y.BroadcastsByNode) {
			t.Fatalf("%s: result %d accounting (%d rounds, %d messages, %d bits) != (%d, %d, %d), or broadcasts differ",
				label, i, y.ActiveRounds, y.Messages, y.MessageBits, x.ActiveRounds, x.Messages, x.MessageBits)
		}
	}
}

// TestFingerprintReproducibleFromSpec is the regression test for the
// end-to-end determinism of every backend: the same Spec must build the
// same fingerprint regardless of the build worker-pool width, because no
// backend may consume hidden global randomness or depend on map/schedule
// order — a scheme shard is reproducible from its reported Spec exactly
// like an oracle shard.
func TestFingerprintReproducibleFromSpec(t *testing.T) {
	for _, sp := range []Spec{oracleSpec(), rtcSpec(), compactSpec()} {
		sp := sp
		t.Run(sp.Normalized().Scheme, func(t *testing.T) {
			first := mustBuild(t, sp)
			again := mustBuild(t, sp)
			if first.Fingerprint() != again.Fingerprint() {
				t.Fatalf("two builds of %+v diverge: %016x vs %016x",
					sp, first.Fingerprint(), again.Fingerprint())
			}
			wide := sp
			wide.BuildWorkers = 4
			narrow := sp
			narrow.BuildWorkers = 1
			w := mustBuild(t, wide)
			n := mustBuild(t, narrow)
			if w.Fingerprint() != n.Fingerprint() {
				t.Fatalf("build of %+v depends on worker width: %016x (4) vs %016x (1)",
					sp, w.Fingerprint(), n.Fingerprint())
			}
			sameAccounting(t, "two builds", first, again)
			sameAccounting(t, "widths 4 and 1", n, w)
			if w.Fingerprint() != first.Fingerprint() {
				t.Fatalf("worker-width builds diverge from default: %016x vs %016x",
					w.Fingerprint(), first.Fingerprint())
			}
			// The reported spec must itself rebuild the same tables: the
			// round-trip the daemon's /v1/stats promises.
			rebuilt := mustBuild(t, first.Spec())
			if rebuilt.Fingerprint() != first.Fingerprint() {
				t.Fatalf("rebuild from reported spec %+v diverges: %016x vs %016x",
					first.Spec(), rebuilt.Fingerprint(), first.Fingerprint())
			}
		})
	}
}

// TestFingerprintSeparatesSeeds guards against a degenerate fingerprint:
// different seeds must (for these instances) produce different digests.
func TestFingerprintSeparatesSeeds(t *testing.T) {
	for _, sp := range []Spec{oracleSpec(), rtcSpec(), compactSpec()} {
		other := sp
		other.Seed += 17
		a := mustBuild(t, sp)
		b := mustBuild(t, other)
		if a.Fingerprint() == b.Fingerprint() {
			t.Errorf("%s: seeds %d and %d built identical fingerprint %016x",
				a.Scheme(), sp.Seed, other.Seed, a.Fingerprint())
		}
	}
}
