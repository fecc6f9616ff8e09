package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestDecodeEnvelopeCommittedBaseline: the committed baseline the CI
// bench gate reads decodes, and re-encoding it reproduces the file
// byte for byte, so the envelope layout has not drifted.
func TestDecodeEnvelopeCommittedBaseline(t *testing.T) {
	data, err := os.ReadFile("../../BENCH_16.json")
	if err != nil {
		t.Fatal(err)
	}
	env, err := decodeEnvelope(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(env.Entries) == 0 || env.NonTestLines != 0 {
		t.Fatalf("decoded %d entries, non_test_lines %d", len(env.Entries), env.NonTestLines)
	}
	back, err := json.MarshalIndent(env, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(append(back, '\n'), data) {
		t.Error("re-encoded BENCH_16.json differs from the committed file")
	}
}

func TestDecodeEnvelopeRejects(t *testing.T) {
	for _, in := range []string{`{"schema_version":2,"entries":[]}`, `{"entries":`} {
		if _, err := decodeEnvelope([]byte(in)); err == nil {
			t.Errorf("%s: decoded, want error", in)
		}
	}
}

// TestCountNonTestLines: test files, testdata and nested modules are
// skipped; every other .go file counts by newline.
func TestCountNonTestLines(t *testing.T) {
	root := t.TempDir()
	files := map[string]string{
		"go.mod":                   "module m\n",
		"a.go":                     "package m\n\nfunc A() {}\n",
		"a_test.go":                "package m\n",
		"README.md":                "x\ny\n",
		"internal/b/b.go":          "package b\n",
		"internal/b/testdata/c.go": "package c\n",
		"nested/go.mod":            "module n\n",
		"nested/n.go":              "package n\n",
	}
	for name, body := range files {
		p := filepath.Join(root, name)
		if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(p, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	n, err := countNonTestLines(root)
	if err != nil {
		t.Fatal(err)
	}
	if n != 4 {
		t.Errorf("counted %d lines, want 4", n)
	}
}

// TestModuleLineCount: from this package's directory the module root
// is found and its count is nonzero and excludes test files.
func TestModuleLineCount(t *testing.T) {
	root, err := moduleRoot()
	if err != nil {
		t.Fatal(err)
	}
	mod, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil || !strings.HasPrefix(string(mod), "module repro") {
		t.Fatalf("module root %s: %v", root, err)
	}
	if n, err := countNonTestLines(root); err != nil || n == 0 {
		t.Fatalf("count = %d, %v", n, err)
	}
}
