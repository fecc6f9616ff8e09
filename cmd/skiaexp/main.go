// Command skiaexp regenerates the paper's evaluation artifacts: every
// figure and table from "Exposing Shadow Branches" (ASPLOS 2025), plus
// the ablations documented in DESIGN.md.
//
// Usage:
//
//	skiaexp -list
//	skiaexp -exp fig14
//	skiaexp -exp all -measure 3000000
//	skiaexp -exp fig3 -benchmarks voter,tpcc,kafka -warmup 500000
//	skiaexp -exp all -json -out results/
//
// By default reports render as aligned plain text. With -json each
// report is emitted as a versioned JSON envelope (schema documented in
// EXPERIMENTS.md, "Results schema"); with -out DIR the envelopes are
// written to DIR/<id>.json plus a DIR/manifest.json index, ready for
// regression diffing with cmd/skiacmp.
//
// Every failure — experiment errors, report or manifest write errors,
// profiler shutdown errors — exits nonzero; a partial -out directory
// is never silently reported as success.
//
// Absolute numbers will not match the paper's gem5/Alder Lake testbed;
// the shapes (who wins, by roughly what factor, where crossovers fall)
// are the reproduction target. See EXPERIMENTS.md for the recorded
// comparison.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/experiments"
	"repro/internal/metrics"
	"repro/internal/sim"
)

// gitDescribe best-effort identifies the tree that produced a report;
// empty when git or the repository is unavailable.
func gitDescribe() string {
	out, err := exec.Command("git", "describe", "--always", "--dirty", "--tags").Output()
	if err != nil {
		return ""
	}
	return strings.TrimSpace(string(out))
}

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintf(os.Stderr, "skiaexp: %v\n", err)
		os.Exit(1)
	}
}

// run executes the CLI and returns every failure joined: an error from
// any experiment, report write, manifest write, or profiler stop makes
// the process exit nonzero (regression-tested in main_test.go — an
// earlier version exited 0 when the manifest write failed after the
// per-experiment files were already on disk).
func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("skiaexp", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		exp     = fs.String("exp", "", "experiment id (see -list), or 'all'")
		list    = fs.Bool("list", false, "list available experiments")
		warmup  = fs.Uint64("warmup", 0, "warmup instructions per run (0 = default)")
		measure = fs.Uint64("measure", 0, "measured instructions per run (0 = default)")
		benches = fs.String("benchmarks", "", "comma-separated benchmark subset (default: full suite)")
		workers = fs.Int("workers", 0, "concurrent simulations (0 = GOMAXPROCS)")
		asJSON  = fs.Bool("json", false, "emit JSON report envelopes instead of plain text")
		outDir  = fs.String("out", "", "write <id>.json per experiment plus manifest.json into this directory (implies -json)")

		intervals = fs.Uint64("intervals", 0,
			"collect interval metrics every N retired instructions per run; summaries land in the report envelope's `intervals` section (0 = off)")
		attribOn = fs.Bool("attrib", false,
			"classify BTB misses and stall cycles by cause on every run; summaries land in the report envelope's `attribution` section")

		samplePlan = sim.SampleFlags(fs)
		sampleEcho = fs.Bool("sample-echo", false,
			"make exact runs publish a CI-free `sampling` section too, for skiacmp -sample-ci gating")
	)
	var prof metrics.Profiler
	prof.RegisterFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *outDir != "" {
		*asJSON = true
	}
	stopProf, err := prof.Start()
	if err != nil {
		return err
	}
	var failures []error
	cat := experiments.Catalog()
	if *list || *exp == "" {
		fmt.Fprintln(stdout, "available experiments:")
		for _, n := range experiments.IDs() {
			fmt.Fprintln(stdout, "  "+n)
		}
		fmt.Fprintln(stdout, "  all")
		return stopProf()
	}

	opts := experiments.Options{Warmup: *warmup, Measure: *measure, Workers: *workers, Interval: *intervals, Attrib: *attribOn,
		Sample: samplePlan(), SampleEcho: *sampleEcho}
	if *benches != "" {
		opts.Benchmarks = strings.Split(*benches, ",")
	}

	if *outDir != "" {
		if err := os.MkdirAll(*outDir, 0o755); err != nil {
			failures = append(failures, err)
			return errors.Join(append(failures, stopProf())...)
		}
	}

	ids := []string{*exp}
	if *exp == "all" {
		ids = experiments.Order
	}
	describe := gitDescribe()
	mf := experiments.Manifest{
		SchemaVersion: experiments.SchemaVersion,
		GeneratedAt:   time.Now().UTC().Format(time.RFC3339),
		GitDescribe:   describe,
		Args:          args,
	}
	for _, id := range ids {
		fn, ok := cat[id]
		if !ok {
			failures = append(failures, fmt.Errorf("unknown experiment %q (try -list)", id))
			break
		}
		start := time.Now()
		rep, err := fn(opts)
		if err != nil {
			failures = append(failures, fmt.Errorf("%s: %w", id, err))
			break
		}
		elapsed := time.Since(start)
		if !*asJSON {
			fmt.Fprintln(stdout, rep)
			fmt.Fprintf(stdout, "(%s in %s)\n\n", id, elapsed.Round(time.Millisecond))
			continue
		}
		rep.Meta.GitDescribe = describe
		rep.Meta.GeneratedAt = time.Now().UTC().Format(time.RFC3339)
		data, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			failures = append(failures, fmt.Errorf("%s: marshal: %w", id, err))
			break
		}
		data = append(data, '\n')
		if *outDir == "" {
			stdout.Write(data)
			continue
		}
		file := id + ".json"
		if err := os.WriteFile(filepath.Join(*outDir, file), data, 0o644); err != nil {
			failures = append(failures, fmt.Errorf("%s: %w", id, err))
			break
		}
		mf.Experiments = append(mf.Experiments, experiments.ManifestEntry{
			ID: id, Title: rep.Title, File: file, WallSeconds: elapsed.Seconds(),
		})
		mf.TotalWallSeconds += elapsed.Seconds()
		fmt.Fprintf(stdout, "wrote %s (%s in %s)\n", filepath.Join(*outDir, file), id, elapsed.Round(time.Millisecond))
	}
	if *outDir != "" {
		if err := writeManifest(*outDir, mf); err != nil {
			failures = append(failures, err)
		} else {
			fmt.Fprintf(stdout, "wrote %s (%d experiments)\n", filepath.Join(*outDir, "manifest.json"), len(mf.Experiments))
		}
	}
	if err := stopProf(); err != nil {
		failures = append(failures, err)
	}
	return errors.Join(failures...)
}

// writeManifest serializes the run index to DIR/manifest.json.
func writeManifest(dir string, mf experiments.Manifest) error {
	data, err := json.MarshalIndent(mf, "", "  ")
	if err != nil {
		return fmt.Errorf("manifest: %w", err)
	}
	path := filepath.Join(dir, "manifest.json")
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return fmt.Errorf("manifest: %w", err)
	}
	return nil
}
