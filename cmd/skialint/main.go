// Command skialint runs the simulator's seven invariant analyzers
// (detmap, nondet, noalloc, conserve, statlock, clonecomplete,
// directive) over the module and exits non-zero if any
// finding survives. It is the static half of the
// determinism/conservation story: the runtime half is the
// skiainvariants build tag.
//
// Usage:
//
//	skialint [-root dir] [-run a,b] [-list] [-json file] [packages]
//
// With no package arguments (or "./..."), the whole module is
// analyzed. Explicit directory arguments (relative to the module
// root) restrict per-package analyzers to those packages; testdata
// fixture directories are reachable only this way.
//
// -json writes the findings to the named file ("-" for stdout) as a
// JSON array of {file, line, col, analyzer, message, directive}
// objects — directive being the //skia: suppression that can waive
// that analyzer's findings — alongside the human output, so one run
// both gates CI and produces the machine-readable artifact.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/lint"
)

// jsonDiagnostic is the machine-readable finding shape the -json
// artifact carries.
type jsonDiagnostic struct {
	File      string `json:"file"`
	Line      int    `json:"line"`
	Col       int    `json:"col"`
	Analyzer  string `json:"analyzer"`
	Message   string `json:"message"`
	Directive string `json:"directive,omitempty"`
}

func main() {
	root := flag.String("root", ".", "module root (directory containing go.mod)")
	run := flag.String("run", "", "comma-separated analyzer names to run (default: all)")
	list := flag.Bool("list", false, "list analyzers and exit")
	jsonOut := flag.String("json", "", "write findings as JSON to this file (\"-\" for stdout)")
	flag.Parse()

	analyzers := lint.Analyzers()
	if *list {
		for _, a := range analyzers {
			fmt.Printf("%-10s %s\n", a.Name, a.Doc)
		}
		return
	}
	if *run != "" {
		want := make(map[string]bool)
		for _, name := range strings.Split(*run, ",") {
			want[strings.TrimSpace(name)] = true
		}
		var sel []*lint.Analyzer
		for _, a := range analyzers {
			if want[a.Name] {
				sel = append(sel, a)
				delete(want, a.Name)
			}
		}
		for name := range want {
			fmt.Fprintf(os.Stderr, "skialint: unknown analyzer %q (use -list)\n", name)
			os.Exit(2)
		}
		analyzers = sel
	}

	var dirs []string
	for _, arg := range flag.Args() {
		if arg == "./..." || arg == "..." {
			continue // whole module, the default
		}
		dirs = append(dirs, strings.TrimPrefix(arg, "./"))
	}

	prog, err := lint.Load(*root, dirs...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "skialint:", err)
		os.Exit(2)
	}
	diags, err := lint.RunAnalyzers(prog, analyzers)
	if err != nil {
		fmt.Fprintln(os.Stderr, "skialint:", err)
		os.Exit(2)
	}
	for _, d := range diags {
		fmt.Println(d)
	}
	if *jsonOut != "" {
		if err := writeJSON(*jsonOut, diags, analyzers); err != nil {
			fmt.Fprintln(os.Stderr, "skialint:", err)
			os.Exit(2)
		}
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "skialint: %d finding(s)\n", len(diags))
		os.Exit(1)
	}
}

// writeJSON renders the diagnostics as the -json artifact. An empty
// finding list still writes `[]`, so CI always has an artifact to
// upload.
func writeJSON(path string, diags []lint.Diagnostic, analyzers []*lint.Analyzer) error {
	directives := make(map[string]string, len(analyzers))
	for _, a := range analyzers {
		directives[a.Name] = a.Directive
	}
	out := make([]jsonDiagnostic, 0, len(diags))
	for _, d := range diags {
		out = append(out, jsonDiagnostic{
			File:      d.Pos.Filename,
			Line:      d.Pos.Line,
			Col:       d.Pos.Column,
			Analyzer:  d.Analyzer,
			Message:   d.Message,
			Directive: directives[d.Analyzer],
		})
	}
	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if path == "-" {
		_, err = os.Stdout.Write(data)
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
