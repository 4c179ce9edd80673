package pde

import (
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// TestDocFacts derives the counts the docs repeat from the source — the
// rows of internal/bench/testdata/pins.json and the header line of
// testdata/surface.golden — and checks every place README.md, docs/ or
// the verify skill states one. A doc may stop stating a count; it may not
// state one the source no longer has.
func TestDocFacts(t *testing.T) {
	raw, err := os.ReadFile("internal/bench/testdata/pins.json")
	if err != nil {
		t.Fatal(err)
	}
	var pins map[string]json.RawMessage
	if err := json.Unmarshal(raw, &pins); err != nil {
		t.Fatal(err)
	}
	header, _, _ := strings.Cut(surface(t), "\n")
	facts := []struct {
		name string
		rx   *regexp.Regexp
		want string
	}{
		{"pins.json rows", regexp.MustCompile(`(\d+)\s+seeded\s+scenarios`), strconv.Itoa(len(pins)) + " seeded scenarios"},
		{"surface.golden header", regexp.MustCompile(`flags\s+\d+\s+fields\s+\d+\s+paths\s+\d+\s+frames\s+\d+\s+stats\s+\d+`), strings.TrimPrefix(header, "# ")},
	}
	docs, err := filepath.Glob("docs/*.md")
	if err != nil {
		t.Fatal(err)
	}
	docs = append(docs, "README.md", ".claude/skills/verify/SKILL.md")
	for _, doc := range docs {
		b, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		text := string(b)
		for _, f := range facts {
			for _, at := range f.rx.FindAllStringIndex(text, -1) {
				stated := strings.Join(strings.Fields(text[at[0]:at[1]]), " ")
				if want := strings.Join(strings.Fields(f.want), " "); stated != want {
					line := 1 + strings.Count(text[:at[0]], "\n")
					t.Errorf("%s:%d states the %s as %q; the source says %q", doc, line, f.name, stated, want)
				}
			}
		}
	}
}
