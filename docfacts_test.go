package pde

import (
	"encoding/json"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"maps"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"
	"unicode"

	"pde/internal/core"
	"pde/internal/detection"
)

// TestDocFacts holds README.md, docs/ and the verify skill to the source.
// Every count they state is derived from where it is defined — the rows
// of internal/bench/testdata/pins.json, the header of
// testdata/surface.golden, the jobs and coverage floors of the CI
// workflow, the analyzers of internal/analysis, the page sizes of core
// and detection — and every place a doc states one must agree. Every
// backticked Test, Fuzz or Benchmark name must be declared in some
// _test.go file, every relative link and #anchor must resolve, and no
// line of docs/*.md outside fenced code may exceed maxDocLine bytes. A doc
// may stop stating a fact; it may not state one the source no longer has.
func TestDocFacts(t *testing.T) {
	docs, err := filepath.Glob("docs/*.md")
	if err != nil {
		t.Fatal(err)
	}
	docs = append(docs, "README.md", ".claude/skills/verify/SKILL.md")
	texts := map[string]string{}
	for _, doc := range docs {
		b, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		texts[doc] = string(b)
	}
	t.Run("counts", func(t *testing.T) { checkCounts(t, docs, texts) })
	t.Run("test names", func(t *testing.T) { checkTestNames(t, docs, texts) })
	t.Run("links", func(t *testing.T) { checkLinks(t, docs, texts) })
	t.Run("line length", func(t *testing.T) {
		for _, doc := range docs {
			if filepath.Dir(doc) != "docs" {
				continue
			}
			for i, line := range strings.Split(proseOnly(texts[doc]), "\n") {
				if len(line) > maxDocLine {
					t.Errorf("%s:%d is %d bytes, over %d: one row or paragraph line states one fact; a transcript belongs in CHANGES.md", doc, i+1, len(line), maxDocLine)
				}
			}
		}
	})
}

// maxDocLine bounds a line of docs/*.md outside fenced code.
const maxDocLine = 600

// countFact is a count some doc states as rx's first group, in digits or
// words.
type countFact struct {
	name string
	rx   *regexp.Regexp
	want int
}

const countWord = `\b(\d+|(?i:zero|one|two|three|four|five|six|seven|eight|nine|ten|eleven|twelve|thirteen|fourteen|fifteen|sixteen|seventeen|eighteen|nineteen|twenty))`

func checkCounts(t *testing.T, docs []string, texts map[string]string) {
	raw, err := os.ReadFile("internal/bench/testdata/pins.json")
	if err != nil {
		t.Fatal(err)
	}
	var pins map[string]json.RawMessage
	if err := json.Unmarshal(raw, &pins); err != nil {
		t.Fatal(err)
	}
	raw, err = os.ReadFile("BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bench struct {
		Workloads []json.RawMessage
		EndToEnd  []json.RawMessage `json:"end_to_end"`
	}
	if err := json.Unmarshal(raw, &bench); err != nil {
		t.Fatal(err)
	}
	jobs, floors, floorsLine := ciFacts(t)
	facts := []countFact{
		{"pins.json rows", regexp.MustCompile(countWord + `\s+seeded\s+scenarios`), len(pins)},
		{"BENCHMARK.json workloads", regexp.MustCompile(countWord + `\s+workloads\b`), len(bench.Workloads)},
		{"BENCHMARK.json end-to-end metrics", regexp.MustCompile(countWord + `\s+end-to-end\s+metrics\b`), len(bench.EndToEnd)},
		{"ci.yml jobs", regexp.MustCompile(countWord + `\s+jobs\b`), jobs},
		{"ci.yml coverage floors", regexp.MustCompile(`floors,\s+` + countWord + `\s+in\s+all`), len(floors)},
		{"internal/analysis analyzers", regexp.MustCompile(countWord + "\\s+(?:`internal/analysis`\\s+)?analyzers\\b"), analyzerCount(t)},
		{"core.PageRows", regexp.MustCompile("`core\\.PageRows`\\s*\\(" + countWord + `\)`), core.PageRows},
		{"detection.PageRows", regexp.MustCompile("`detection\\.PageRows`\\s*\\(" + countWord + `\)`), detection.PageRows},
	}
	golden := surface(t)
	for _, bin := range []string{"pde-serve", "pde-cluster", "pde-query", "pde-experiments"} {
		facts = append(facts, countFact{bin + " flags", regexp.MustCompile("`" + bin + "`'s\\s+" + countWord + `\s+flags\b`), strings.Count(golden, "\nflag cmd/"+bin+" ")})
	}
	header, _, _ := strings.Cut(golden, "\n")
	wantHeader := strings.Join(strings.Fields(strings.TrimPrefix(header, "# ")), " ")
	headerRx := regexp.MustCompile(`flags\s+\d+\s+fields\s+\d+\s+paths\s+\d+\s+frames\s+\d+\s+stats\s+\d+`)
	floorRx := regexp.MustCompile(`\*\*(\d+)\s*%\*\*:?([^*]*)`)
	pkgRx := regexp.MustCompile("`((?:cmd|internal)/[\\w./-]+)`")

	for _, doc := range docs {
		text := texts[doc]
		for _, f := range facts {
			for _, m := range f.rx.FindAllStringSubmatchIndex(text, -1) {
				if n, ok := parseCount(text[m[2]:m[3]]); ok && n != f.want {
					t.Errorf("%s:%d states the %s as %d (%q); the source says %d", doc, lineOf(text, m[0]), f.name, n, text[m[0]:m[1]], f.want)
				}
			}
		}
		for _, at := range headerRx.FindAllStringIndex(text, -1) {
			if stated := strings.Join(strings.Fields(text[at[0]:at[1]]), " "); stated != wantHeader {
				t.Errorf("%s:%d states the surface.golden header as %q; the source says %q", doc, lineOf(text, at[0]), stated, wantHeader)
			}
		}
		// A doc that lists coverage floors ("**80%**: `internal/wire`, …")
		// lists every one, each at the floor ci.yml enforces.
		stated := map[string]bool{}
		first := -1
		for _, m := range floorRx.FindAllStringSubmatchIndex(text, -1) {
			floor, _ := strconv.Atoi(text[m[2]:m[3]])
			for _, p := range pkgRx.FindAllStringSubmatchIndex(text[m[4]:m[5]], -1) {
				at := m[4] + p[0]
				pkg := text[m[4]+p[2] : m[4]+p[3]]
				stated[pkg] = true
				if first < 0 {
					first = at
				}
				if want, ok := floors[pkg]; !ok {
					t.Errorf("%s:%d states a %d%% coverage floor for %s; %s has none", doc, lineOf(text, at), floor, pkg, ciWorkflow)
				} else if want != floor {
					t.Errorf("%s:%d states %s's coverage floor as %d%%; %s:%d enforces %d%%", doc, lineOf(text, at), pkg, floor, ciWorkflow, floorsLine, want)
				}
			}
		}
		if first >= 0 {
			for _, pkg := range slices.Sorted(maps.Keys(floors)) {
				if !stated[pkg] {
					t.Errorf("%s:%d lists coverage floors without %s's %d%% (%s:%d)", doc, lineOf(text, first), pkg, floors[pkg], ciWorkflow, floorsLine)
				}
			}
		}
	}
}

const ciWorkflow = ".github/workflows/ci.yml"

// ciFacts reads the CI workflow's job count and the coverage job's floors,
// package (without the module prefix) to percent, with the line that lists
// them.
func ciFacts(t *testing.T) (jobs int, floors map[string]int, floorsLine int) {
	b, err := os.ReadFile(ciWorkflow)
	if err != nil {
		t.Fatal(err)
	}
	jobRx := regexp.MustCompile(`^  [\w-]+:\s*$`)
	inJobs := false
	for i, line := range strings.Split(string(b), "\n") {
		switch {
		case line == "jobs:":
			inJobs = true
		case inJobs && line != "" && !strings.HasPrefix(line, " ") && !strings.HasPrefix(line, "#"):
			inJobs = false
		case inJobs && jobRx.MatchString(line):
			jobs++
		}
		if before, list, ok := strings.Cut(line, "for entry in "); ok && strings.TrimSpace(before) == "" {
			list, _, _ = strings.Cut(list, ";")
			floors, floorsLine = map[string]int{}, i+1
			for _, entry := range strings.Fields(list) {
				pkg, pct, ok := strings.Cut(entry, ":")
				n, err := strconv.Atoi(pct)
				if !ok || err != nil {
					t.Fatalf("%s:%d: coverage entry %q is not pkg:percent", ciWorkflow, i+1, entry)
				}
				floors[strings.TrimPrefix(pkg, "pde/")] = n
			}
		}
	}
	if jobs == 0 || floors == nil {
		t.Fatalf("%s: found %d jobs and no coverage floor list", ciWorkflow, jobs)
	}
	return jobs, floors, floorsLine
}

// analyzerCount counts internal/analysis's analyzers: its top-level
// `var X = &Analyzer{…}` declarations.
func analyzerCount(t *testing.T) int {
	files, err := filepath.Glob("internal/analysis/*.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	n := 0
	for _, path := range files {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range f.Decls {
			gd, ok := d.(*ast.GenDecl)
			if !ok || gd.Tok != token.VAR {
				continue
			}
			for _, s := range gd.Specs {
				for _, v := range s.(*ast.ValueSpec).Values {
					if u, ok := v.(*ast.UnaryExpr); ok && u.Op == token.AND {
						if cl, ok := u.X.(*ast.CompositeLit); ok {
							if id, ok := cl.Type.(*ast.Ident); ok && id.Name == "Analyzer" {
								n++
							}
						}
					}
				}
			}
		}
	}
	return n
}

// checkTestNames: a backticked span's Test…, Fuzz… or Benchmark… name is
// declared in some _test.go file. A span holding a * or a -run regex names
// a pattern, not a test, and is not checked.
func checkTestNames(t *testing.T, docs []string, texts map[string]string) {
	declared := map[string]bool{}
	declRx := regexp.MustCompile(`(?m)^func ((?:Test|Fuzz|Benchmark)\w*)\(`)
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, m := range declRx.FindAllStringSubmatch(string(b), -1) {
			declared[m[1]] = true
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	nameRx := regexp.MustCompile(`\b(?:Test|Fuzz|Benchmark)[A-Z0-9_]\w*`)
	for _, doc := range docs {
		text := proseOnly(texts[doc])
		for _, at := range codeSpan.FindAllStringIndex(text, -1) {
			span := text[at[0]:at[1]]
			if strings.Contains(span, "*") || strings.Contains(span, "-run") {
				continue
			}
			for _, name := range nameRx.FindAllString(span, -1) {
				if !declared[name] {
					t.Errorf("%s:%d names %s, which no _test.go file declares", doc, lineOf(text, at[0]), name)
				}
			}
		}
	}
}

var (
	codeSpan = regexp.MustCompile("`[^`]+`")
	mdLink   = regexp.MustCompile(`\]\(([^)\s]+)\)`)
	heading  = regexp.MustCompile(`(?m)^#{1,6}\s+(.+?)\s*#*\s*$`)
)

// checkLinks: every relative link's file exists and its #anchor is a
// heading of that file. Links that leave the repository (the CI badge's
// ../../actions/…) and absolute URLs are not checked.
func checkLinks(t *testing.T, docs []string, texts map[string]string) {
	root, err := filepath.Abs(".")
	if err != nil {
		t.Fatal(err)
	}
	anchors := map[string]map[string]bool{}
	anchorsOf := func(path string) map[string]bool {
		if a, ok := anchors[path]; ok {
			return a
		}
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		a := map[string]bool{}
		seen := map[string]int{}
		for _, m := range heading.FindAllStringSubmatch(proseOnly(string(b)), -1) {
			slug := slugify(m[1])
			if k := seen[slug]; k > 0 {
				a[fmt.Sprintf("%s-%d", slug, k)] = true
			} else {
				a[slug] = true
			}
			seen[slug]++
		}
		anchors[path] = a
		return a
	}
	for _, doc := range docs {
		text := codeSpan.ReplaceAllStringFunc(proseOnly(texts[doc]), func(s string) string {
			return strings.Repeat(" ", len(s)-strings.Count(s, "\n")) + strings.Repeat("\n", strings.Count(s, "\n"))
		})
		for _, m := range mdLink.FindAllStringSubmatchIndex(text, -1) {
			target := text[m[2]:m[3]]
			if strings.Contains(target, "://") || strings.HasPrefix(target, "mailto:") {
				continue
			}
			file, anchor, _ := strings.Cut(target, "#")
			path := doc
			if file != "" {
				path = filepath.Join(filepath.Dir(doc), file)
				abs, err := filepath.Abs(path)
				if err != nil {
					t.Fatal(err)
				}
				if rel, err := filepath.Rel(root, abs); err != nil || strings.HasPrefix(rel, "..") {
					continue
				}
				if _, err := os.Stat(path); err != nil {
					t.Errorf("%s:%d links to %s, which does not exist", doc, lineOf(text, m[0]), target)
					continue
				}
			}
			if anchor != "" && strings.HasSuffix(path, ".md") && !anchorsOf(path)[anchor] {
				t.Errorf("%s:%d links to %s, but %s has no heading with anchor #%s", doc, lineOf(text, m[0]), target, path, anchor)
			}
		}
	}
}

// slugify is GitHub's heading anchor: lower case, every character but
// letters, digits, spaces, hyphens and underscores dropped, spaces turned
// into hyphens.
func slugify(h string) string {
	var b strings.Builder
	for _, r := range strings.ToLower(h) {
		switch {
		case r == ' ':
			b.WriteByte('-')
		case r == '-' || r == '_' || unicode.IsLetter(r) || unicode.IsDigit(r):
			b.WriteRune(r)
		}
	}
	return b.String()
}

// proseOnly blanks the lines of fenced code blocks, keeping line numbers.
func proseOnly(text string) string {
	lines := strings.Split(text, "\n")
	fenced := false
	for i, line := range lines {
		if strings.HasPrefix(strings.TrimSpace(line), "```") {
			fenced = !fenced
			lines[i] = ""
		} else if fenced {
			lines[i] = ""
		}
	}
	return strings.Join(lines, "\n")
}

func lineOf(text string, off int) int { return 1 + strings.Count(text[:off], "\n") }

// parseCount reads a count stated in digits or as an English word.
func parseCount(s string) (int, bool) {
	if n, err := strconv.Atoi(s); err == nil {
		return n, true
	}
	words := strings.Split("zero one two three four five six seven eight nine ten eleven twelve thirteen fourteen fifteen sixteen seventeen eighteen nineteen twenty", " ")
	i := slices.Index(words, strings.ToLower(s))
	return i, i >= 0
}
