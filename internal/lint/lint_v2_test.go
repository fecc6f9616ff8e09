package lint

import (
	"path/filepath"
	"testing"
)

func TestCloneCompleteFixtures(t *testing.T) {
	runFixture(t, CloneCompleteAnalyzer, "clonecomplete/bad")
	runFixture(t, CloneCompleteAnalyzer, "clonecomplete/good")
}

func TestDirectiveFixtures(t *testing.T) {
	runFixture(t, DirectiveAnalyzer, "directive/bad")
	runFixture(t, DirectiveAnalyzer, "directive/good")
}

// TestCloneCompleteCoversCheckpointTypes is the fixture-backed
// self-test the acceptance criteria name: it proves clonecomplete
// really analyzed the two types whose Clone methods anchor the
// sampling era's checkpoints — frontend.FrontEnd and cpu.Core — and
// found them complete. Deleting any field-copy line from either Clone
// (or any component Clone they delegate to) flips the published fact
// or produces a diagnostic, failing this test; so does a refactor
// that renames the types out from under the analyzer.
func TestCloneCompleteCoversCheckpointTypes(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module")
	}
	root, err := filepath.Abs("../..")
	if err != nil {
		t.Fatal(err)
	}
	prog, err := Load(root)
	if err != nil {
		t.Fatal(err)
	}
	diags, err := RunAnalyzers(prog, []*Analyzer{CloneCompleteAnalyzer})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		t.Errorf("clonecomplete finding in the module tree: %s", d)
	}
	for _, want := range []struct{ pkg, typ string }{
		{"repro/internal/frontend", "FrontEnd"},
		{"repro/internal/cpu", "Core"},
		{"repro/internal/emu", "Emulator"},
		{"repro/internal/core", "SBD"},
		{"repro/internal/core", "SBB"},
		{"repro/internal/core", "DecodeCache"},
		{"repro/internal/btb", "BTB"},
		{"repro/internal/tage", "Predictor"},
		{"repro/internal/ittage", "Predictor"},
		{"repro/internal/ras", "Stack"},
		{"repro/internal/cache", "Cache"},
	} {
		pkg := prog.ByPath(want.pkg)
		if pkg == nil {
			t.Errorf("package %s not loaded", want.pkg)
			continue
		}
		obj := pkg.Types.Scope().Lookup(want.typ)
		if obj == nil {
			t.Errorf("%s.%s: type not found", want.pkg, want.typ)
			continue
		}
		if !prog.Facts().Bool(obj, "clonecomplete.checked") {
			t.Errorf("%s.%s: clonecomplete never analyzed its Clone method", want.pkg, want.typ)
		}
		if !prog.Facts().Bool(obj, "clonecomplete.complete") {
			t.Errorf("%s.%s: Clone field coverage is incomplete", want.pkg, want.typ)
		}
	}
}
