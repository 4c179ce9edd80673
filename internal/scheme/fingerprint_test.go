package scheme

import (
	"sync"
	"testing"
)

// TestOracleFingerprintIsTheGenerationsIdentity: the instance's digest is
// its result's, computed once — concurrent first callers agree (run under
// -race), and a later mutation of the result moves Res.Fingerprint() but
// not the value the generation was published under. (The mutation is of
// the round budget: the lists enter through row digests the result
// memoizes, so a list edited after the first digest is not seen.)
func TestOracleFingerprintIsTheGenerationsIdentity(t *testing.T) {
	in := mustBuild(t, oracleSpec()).(*OracleInstance)
	want := in.Res.Fingerprint()

	const callers = 8
	got := make([]uint64, callers)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i] = in.Fingerprint()
		}()
	}
	wg.Wait()
	for i, fp := range got {
		if fp != want {
			t.Fatalf("caller %d read %016x, Res.Fingerprint() is %016x", i, fp, want)
		}
	}

	in.Res.BudgetRounds++
	if in.Res.Fingerprint() == want {
		t.Fatal("moving the round budget did not move Res.Fingerprint(); the test mutates nothing the digest covers")
	}
	if fp := in.Fingerprint(); fp != want {
		t.Fatalf("instance answers %016x after its result was mutated, was published as %016x", fp, want)
	}
}
