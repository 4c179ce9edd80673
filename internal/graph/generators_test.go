package graph

import (
	"math/rand"
	"strings"
	"testing"
)

// TestGenerateEveryFamily builds every registered family and checks the
// result is connected and at least as large as requested (grid-shaped
// families round up to the next perfect square).
func TestGenerateEveryFamily(t *testing.T) {
	for _, name := range generatorNames() {
		g, err := Generate(name, 30, 10, rand.New(rand.NewSource(3)))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if g.N() < 30 {
			t.Errorf("%s: got %d nodes, requested 30", name, g.N())
		}
		if d := HopDiameter(g); d < 0 {
			t.Errorf("%s: generated graph is disconnected", name)
		}
		if !IsGenerator(name) {
			t.Errorf("%s listed but IsGenerator says no", name)
		}
	}
}

// TestGenerateDeterministic pins that the same (family, n, seed) always
// yields the same graph — the property every serving Spec relies on.
func TestGenerateDeterministic(t *testing.T) {
	for _, name := range generatorNames() {
		a, err := Generate(name, 24, 8, rand.New(rand.NewSource(11)))
		if err != nil {
			t.Fatal(err)
		}
		b, err := Generate(name, 24, 8, rand.New(rand.NewSource(11)))
		if err != nil {
			t.Fatal(err)
		}
		if a.N() != b.N() || a.M() != b.M() {
			t.Fatalf("%s: rebuild differs: n %d/%d m %d/%d", name, a.N(), b.N(), a.M(), b.M())
		}
		for v := 0; v < a.N(); v++ {
			ea, eb := a.Neighbors(v), b.Neighbors(v)
			if len(ea) != len(eb) {
				t.Fatalf("%s: node %d degree differs", name, v)
			}
			for i := range ea {
				if ea[i].To != eb[i].To || ea[i].W != eb[i].W {
					t.Fatalf("%s: node %d edge %d differs", name, v, i)
				}
			}
		}
	}
}

// TestGenerateUnknown pins the single shared error message.
func TestGenerateUnknown(t *testing.T) {
	_, err := Generate("moebius", 10, 4, rand.New(rand.NewSource(1)))
	if err == nil {
		t.Fatal("expected an error for an unknown topology")
	}
	if !strings.Contains(err.Error(), `unknown topology "moebius"`) ||
		!strings.Contains(err.Error(), "random") {
		t.Fatalf("error should name the family and list the options, got: %v", err)
	}
}
