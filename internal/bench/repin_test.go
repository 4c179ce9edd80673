package bench

import (
	"hash/fnv"
	"testing"
)

// TestRepinMovedOnlyFingerprints shows that re-pinning for core's folded
// fingerprint (the instances enter Result.Fingerprint as memoized
// per-instance digests) moved the fingerprint column and nothing else.
// Putting each re-pinned row's old fingerprint back into testdata/pins.json
// must give, byte for byte, the file as it was before the re-pin: its
// length and FNV-1a are pinned here. Every other field of all 28 rows is
// therefore unchanged, and TestPins holds the builds to those fields. The
// next deliberate re-pin of pins.json retires this test.
func TestRepinMovedOnlyFingerprints(t *testing.T) {
	const (
		prevLen  = 7379
		prevHash = 0x67ee45edfd8fcfba
	)
	repinned := map[string][2]string{ // row: {before, after}
		"apsp-grid-8x8":              {"9ebbc93f0949d3a0", "a2309361c863bb9e"},
		"apsp-powerlaw-n64":          {"20afdd8c5186894f", "75b4c49c07a0163f"},
		"apsp-random-n64":            {"b2203f8520470dd8", "518f1aabf6aedbf3"},
		"build_community-n256":       {"4605b5700ee457e3", "e83e6525ef522771"},
		"build_powerlaw-n256":        {"fdd7d23ba6f283d2", "20ffcddf8f27c6cf"},
		"build_random-n256":          {"d828ed4f807f94d1", "ee41d24503a1716d"},
		"build_roadgrid-16x16":       {"a0d5239f580a2b50", "1c61aee17bbf2153"},
		"cluster_estimate-apsp-n256": {"5a054cf6f09bf83a", "e0f49472d8903cac"},
		"serve_estimate-apsp-n256":   {"5a054cf6f09bf83a", "e0f49472d8903cac"},
		"serve_estimate-apsp-n512":   {"6f083dff665ec1e2", "56a8d9201f2ebcad"},
		"sweep-community-n96":        {"a6419e7e478223fe", "70313966c7d2da36"},
		"sweep-internet-n128":        {"1074c890fdc8c0fb", "23e4aff16d135037"},
		"sweep-roadgrid-12x12":       {"8ec3cdbf9775f898", "481bd66125cd9408"},
		"update_community-n512":      {"12778099e4b5277f", "5315d210edb6ed87"},
		"update_roadgrid-16x16":      {"74e732054c12bfcb", "91352ddadaf1b0b0"},
	}
	golden := readGolden(t)
	if len(golden) != 28 {
		t.Fatalf("%s has %d rows, want 28", pinsFile, len(golden))
	}
	for name, fps := range repinned {
		row, ok := golden[name]
		if !ok {
			t.Fatalf("re-pinned row %q is not in %s", name, pinsFile)
		}
		if row["fingerprint"] != fps[1] {
			t.Errorf("row %q: fingerprint %v, re-pinned to %s", name, row["fingerprint"], fps[1])
		}
		row["fingerprint"] = fps[0]
	}
	before := encodePins(t, golden)
	h := fnv.New64a()
	h.Write(before)
	if len(before) != prevLen || h.Sum64() != prevHash {
		t.Errorf("%s with the old fingerprints restored is %d bytes, FNV-1a %#016x; the file before the re-pin was %d bytes, %#016x",
			pinsFile, len(before), h.Sum64(), prevLen, uint64(prevHash))
	}
}
