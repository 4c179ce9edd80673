package pde

import (
	"os/exec"
	"testing"
)

// TestBenchmarkModule vets and tests benchmark/, the benchmark of record.
// It is its own module (pde/benchmark, replace pde => ../), so `go test
// ./...` at the root never compiles it; this test does, and its smoke
// test boots the daemon and checks the fingerprint it publishes against
// an in-process build of the same tables; -count=1 makes every run boot
// it rather than report a cached pass. About 15 s, so -short skips it.
func TestBenchmarkModule(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and tests the benchmark module")
	}
	gobin, err := exec.LookPath("go")
	if err != nil {
		t.Skipf("no go command on PATH: %v", err)
	}
	for _, args := range [][]string{
		{"-C", "benchmark", "vet", "./..."},
		{"-C", "benchmark", "test", "-count=1", "./..."},
	} {
		out, err := exec.Command(gobin, args...).CombinedOutput()
		if err != nil {
			t.Fatalf("go %v: %v\n%s", args, err, out)
		}
	}
}
