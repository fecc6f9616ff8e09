package lint

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// wantRe matches the fixture expectation syntax, analysistest-style:
// a "// want `regex`" comment on the line a diagnostic lands on.
// The block form "/* want `regex` */" exists for lines where a
// //skia: line directive already owns the rest of the line (the
// directive analyzer's own fixtures).
var wantRe = regexp.MustCompile("(?://|/\\*) want `([^`]+)`")

// runFixture analyzes one fixture package under testdata/src and
// checks its diagnostics against the `// want` comments: every
// diagnostic must match a want on its line, and every want must be
// consumed by a diagnostic. Packages with no want comments therefore
// assert the analyzer stays silent.
func runFixture(t *testing.T, a *Analyzer, rel string) {
	t.Helper()
	root, err := filepath.Abs("../..")
	if err != nil {
		t.Fatal(err)
	}
	dir := "internal/lint/testdata/src/" + rel
	prog, err := Load(root, dir)
	if err != nil {
		t.Fatalf("loading %s: %v", rel, err)
	}
	diags, err := RunAnalyzers(prog, []*Analyzer{a})
	if err != nil {
		t.Fatalf("running %s on %s: %v", a.Name, rel, err)
	}

	type key struct {
		file string
		line int
	}
	wants := make(map[key][]*regexp.Regexp)
	abs := filepath.Join(root, filepath.FromSlash(dir))
	ents, err := os.ReadDir(abs)
	if err != nil {
		t.Fatal(err)
	}
	for _, ent := range ents {
		if !strings.HasSuffix(ent.Name(), ".go") {
			continue
		}
		path := filepath.Join(abs, ent.Name())
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(data), "\n") {
			if m := wantRe.FindStringSubmatch(line); m != nil {
				re, err := regexp.Compile(m[1])
				if err != nil {
					t.Fatalf("%s:%d: bad want regexp %q: %v", path, i+1, m[1], err)
				}
				k := key{path, i + 1}
				wants[k] = append(wants[k], re)
			}
		}
	}

	for _, d := range diags {
		k := key{d.Pos.Filename, d.Pos.Line}
		matched := -1
		for i, re := range wants[k] {
			if re.MatchString(d.Message) {
				matched = i
				break
			}
		}
		if matched < 0 {
			t.Errorf("unexpected diagnostic: %s", d)
			continue
		}
		wants[k] = append(wants[k][:matched], wants[k][matched+1:]...)
	}
	for k, res := range wants {
		for _, re := range res {
			t.Errorf("%s:%d: expected diagnostic matching %q, got none", k.file, k.line, re)
		}
	}
}

func TestDetMapFixtures(t *testing.T) {
	runFixture(t, DetMapAnalyzer, "detmap/bad")
	runFixture(t, DetMapAnalyzer, "detmap/good")
}

func TestNonDetFixtures(t *testing.T) {
	runFixture(t, NonDetAnalyzer, "nondet/bad")
	runFixture(t, NonDetAnalyzer, "nondet/good")
}

func TestNoAllocFixtures(t *testing.T) {
	if testing.Short() {
		t.Skip("shells out to go build for escape analysis")
	}
	runFixture(t, NoAllocAnalyzer, "noalloc/bad")
	runFixture(t, NoAllocAnalyzer, "noalloc/good")
}

func TestConserveFixtures(t *testing.T) {
	runFixture(t, ConserveAnalyzer, "conserve/bad")
	runFixture(t, ConserveAnalyzer, "conserve/good")
}

func TestStatLockFixtures(t *testing.T) {
	runFixture(t, StatLockAnalyzer, "statlock/bad")
	runFixture(t, StatLockAnalyzer, "statlock/good")
}

// TestRepoIsLintClean is the in-process version of the CI gate: the
// module's own tree must produce zero findings from the full suite.
func TestRepoIsLintClean(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module and shells out to go build")
	}
	root, err := filepath.Abs("../..")
	if err != nil {
		t.Fatal(err)
	}
	prog, err := Load(root)
	if err != nil {
		t.Fatal(err)
	}
	diags, err := RunAnalyzers(prog, Analyzers())
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		t.Errorf("%s", d)
	}
}
