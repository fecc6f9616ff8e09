// Package compare diffs two sets of JSON experiment reports (as
// written by skiaexp -json -out) cell by cell: it pairs experiments by
// ID, rows by their label cells, and columns by name, then checks
// every numeric cell against configurable tolerances. Columns with the
// "speedup" unit additionally get sign-flip detection — a speedup that
// changes sign is a "who wins" shape regression regardless of its
// magnitude. cmd/skiacmp is the CLI; its nonzero exit on Failed
// results is the regression gate future performance PRs cite.
package compare

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/attrib"
	"repro/internal/experiments"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/stats"
)

// Options tunes the diff.
type Options struct {
	// RTol is the relative tolerance: a numeric cell fails when
	// |new-old| > ATol + RTol*|old|. Default 0.05.
	RTol float64
	// ATol is the absolute tolerance floor shielding near-zero cells
	// from meaningless relative blowups. Default 1e-6.
	ATol float64
	// FlipMin is the minimum magnitude both sides of a speedup cell
	// must have before a sign flip counts (keeps ±0.01% noise from
	// flagging). Default 1e-3.
	FlipMin float64
	// IVRTol is the relative tolerance applied to per-spec interval
	// summaries (IPC mean, SBB coverage) from the envelopes' optional
	// `intervals` section. Default 0.05.
	IVRTol float64
	// AttribTol is the absolute tolerance applied to attribution
	// shares (BTB-miss cause shares, stall shares, shadow residency)
	// from the envelopes' optional `attribution` section. Shares are
	// fractions of the run's own totals, so an absolute bound compares
	// mix shifts directly without the near-zero blowups a relative
	// bound would hit on rare causes. Default 0.05 (five points).
	AttribTol float64
	// SampleCI switches the diff to sampled-validation mode (skiacmp
	// -sample-ci): only the envelopes' `sampling` sections are
	// compared, base as the reference (normally an exact run with
	// Runner.SampleEcho) and head as the sampled run under test. Each
	// metric passes when |base.mean - head.mean| <= head.CI + base.CI
	// + SampleATol + SampleRTol*|base.mean| — the sampled estimate
	// must contain the reference inside its stated confidence
	// interval, up to the slack tolerances.
	SampleCI bool
	// SampleATol and SampleRTol are the slack terms added to the
	// confidence-interval bound in SampleCI mode, covering the
	// residual bias functional warming cannot remove (wrong-path
	// effects). Defaults 0.01 and 0.05.
	SampleATol float64
	SampleRTol float64
}

// withDefaults fills unset tolerance fields.
func (o Options) withDefaults() Options {
	if o.RTol == 0 {
		o.RTol = 0.05
	}
	if o.ATol == 0 {
		o.ATol = 1e-6
	}
	if o.FlipMin == 0 {
		o.FlipMin = 1e-3
	}
	if o.IVRTol == 0 {
		o.IVRTol = 0.05
	}
	if o.AttribTol == 0 {
		o.AttribTol = 0.05
	}
	if o.SampleATol == 0 {
		o.SampleATol = 0.01
	}
	if o.SampleRTol == 0 {
		o.SampleRTol = 0.05
	}
	return o
}

// Finding is one failing numeric cell.
type Finding struct {
	Experiment string
	Row        string // row key: the row's label cells joined
	Column     string
	Unit       string
	Old, New   float64
	// Rel is |new-old| / |old| (Inf when old is 0 and new is not).
	Rel float64
	// SignFlip marks a speedup column whose sign changed.
	SignFlip bool
}

func (f Finding) String() string {
	kind := fmt.Sprintf("delta %+.4g (%.1f%% rel)", f.New-f.Old, f.Rel*100)
	if f.SignFlip {
		kind = "SIGN FLIP (who-wins regression)"
	}
	return fmt.Sprintf("%s: [%s] %s: %v -> %v: %s",
		f.Experiment, f.Row, f.Column, f.Old, f.New, kind)
}

// Result is the outcome of a diff.
type Result struct {
	// Compared counts numeric cells checked.
	Compared int
	// Findings lists tolerance violations and sign flips.
	Findings []Finding
	// Mismatches lists failing structural differences: experiments,
	// rows, or columns present in the old set but gone from the new.
	Mismatches []string
	// Warnings lists non-failing notes (additions in the new set).
	Warnings []string
}

// Failed reports whether the diff should gate (exit nonzero).
func (r *Result) Failed() bool {
	return len(r.Findings) > 0 || len(r.Mismatches) > 0
}

// String renders a human-readable summary.
func (r *Result) String() string {
	var b strings.Builder
	for _, m := range r.Mismatches {
		fmt.Fprintf(&b, "mismatch: %s\n", m)
	}
	for _, f := range r.Findings {
		fmt.Fprintf(&b, "fail: %s\n", f)
	}
	for _, w := range r.Warnings {
		fmt.Fprintf(&b, "note: %s\n", w)
	}
	verdict := "OK"
	if r.Failed() {
		verdict = "FAIL"
	}
	fmt.Fprintf(&b, "%s: %d cells compared, %d failures, %d mismatches, %d notes\n",
		verdict, r.Compared, len(r.Findings), len(r.Mismatches), len(r.Warnings))
	return b.String()
}

// LoadPath reads experiment reports from a single .json file or from
// every *.json in a directory (manifest.json skipped), keyed by
// experiment ID.
func LoadPath(path string) (map[string]*experiments.Report, error) {
	info, err := os.Stat(path)
	if err != nil {
		return nil, err
	}
	files := []string{path}
	if info.IsDir() {
		files, err = filepath.Glob(filepath.Join(path, "*.json"))
		if err != nil {
			return nil, err
		}
	}
	out := make(map[string]*experiments.Report)
	for _, f := range files {
		if filepath.Base(f) == "manifest.json" {
			continue
		}
		data, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		rep, err := experiments.DecodeReport(data)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", f, err)
		}
		if _, dup := out[rep.ID]; dup {
			return nil, fmt.Errorf("%s: duplicate report for experiment %q", f, rep.ID)
		}
		out[rep.ID] = rep
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%s: no reports found", path)
	}
	return out, nil
}

// pair matches base and head entries by key. In base order it calls
// both with the indices of every key the two sides share and missing
// with every base key head lacks; it returns the keys only head has, in
// head order. A key repeated within one side pairs by occurrence: its
// second and later copies get the suffix #1, #2, ...
func pair[T any](base, head []T, key func(T) string, both func(k string, i, j int), missing func(k string)) []string {
	hk := keys(head, key)
	at := make(map[string]int, len(head))
	for j, k := range hk {
		at[k] = j
	}
	seen := make(map[string]bool, len(base))
	for i, k := range keys(base, key) {
		seen[k] = true
		if j, ok := at[k]; ok {
			both(k, i, j)
		} else {
			missing(k)
		}
	}
	var extra []string
	for _, k := range hk {
		if !seen[k] {
			extra = append(extra, k)
		}
	}
	return extra
}

// keys returns each entry's key, duplicates suffixed by occurrence.
func keys[T any](xs []T, key func(T) string) []string {
	counts := make(map[string]int, len(xs))
	out := make([]string, len(xs))
	for i, x := range xs {
		k := key(x)
		out[i] = k
		if n := counts[k]; n > 0 {
			out[i] = fmt.Sprintf("%s#%d", k, n)
		}
		counts[k]++
	}
	return out
}

// rowKey identifies a row by its label (string-kind) cells so rows
// still pair up when row order shifts. Tables whose rows carry no
// string cells fall back to positional pairing via the duplicate-key
// occurrence suffix.
func rowKey(row []stats.Cell) string {
	var parts []string
	for _, c := range row {
		if c.Kind == stats.CellStr && c.Text != "" {
			parts = append(parts, c.Text)
		}
	}
	return strings.Join(parts, "/")
}

// rows returns a table's data rows.
func rows(t *stats.Table) [][]stats.Cell {
	out := make([][]stats.Cell, t.NumRows())
	for i := range out {
		out[i] = t.Row(i)
	}
	return out
}

// mismatch records a failing structural difference.
func (r *Result) mismatch(format string, a ...any) {
	r.Mismatches = append(r.Mismatches, fmt.Sprintf(format, a...))
}

// note records a non-failing difference.
func (r *Result) note(format string, a ...any) {
	r.Warnings = append(r.Warnings, fmt.Sprintf(format, a...))
}

// Diff compares two report sets. base is the reference; regressions
// are judged from its point of view.
func Diff(base, head map[string]*experiments.Report, opt Options) *Result {
	opt = opt.withDefaults()
	res := &Result{}
	extra := pair(ids(base), ids(head), func(id string) string { return id },
		func(id string, _, _ int) { diffReport(res, base[id], head[id], opt) },
		func(id string) { res.mismatch("experiment %q missing from new results", id) })
	for _, id := range extra {
		res.note("experiment %q only in new results", id)
	}
	return res
}

// ids returns a report set's experiment IDs, sorted.
func ids(reps map[string]*experiments.Report) []string {
	var out []string
	for id := range reps {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// diffReport compares one experiment's tables cell by cell, then its
// per-spec sections.
func diffReport(res *Result, base, head *experiments.Report, opt Options) {
	if opt.SampleCI {
		diffSampleCI(res, base, head, opt)
		return
	}
	id := base.ID
	oldCols := base.Table.Columns()
	var cols [][2]int // base and head index of every shared column
	extra := pair(oldCols, head.Table.Columns(), func(c stats.Column) string { return c.Name },
		func(_ string, i, j int) { cols = append(cols, [2]int{i, j}) },
		func(name string) { res.mismatch("%s: column %q missing from new results", id, name) })
	for _, name := range extra {
		res.note("%s: column %q only in new results", id, name)
	}

	oldRows, newRows := rows(base.Table), rows(head.Table)
	extra = pair(oldRows, newRows, rowKey, func(key string, i, j int) {
		for _, c := range cols {
			col, a, b := oldCols[c[0]], oldRows[i][c[0]], newRows[j][c[1]]
			if a.Kind != b.Kind {
				res.mismatch("%s: [%s] %s: cell kind changed %s -> %s", id, key, col.Name, a.Kind, b.Kind)
				continue
			}
			if a.Kind != stats.CellNum {
				continue
			}
			res.Compared++
			checkCell(res, id, key, col, a.Value, b.Value, opt)
		}
	}, func(key string) { res.mismatch("%s: row [%s] missing from new results", id, key) })
	sort.Strings(extra)
	for _, key := range extra {
		res.note("%s: row [%s] only in new results", id, key)
	}
	diffIntervals(res, base, head, opt)
	diffAttribution(res, base, head, opt)
	diffSampling(res, base, head, opt)
}

// specKey identifies one spec's envelope section entry the way table
// rows are keyed: benchmark plus config label.
func specKey[T any](s experiments.Spec[T]) string {
	if s.Label == "" {
		return s.Benchmark
	}
	return s.Benchmark + "/" + s.Label
}

// diffSection pairs one per-spec envelope section by spec and calls
// check on every spec both sides carry. Specs present in the base but
// gone from the new set fail; additions (say, the new run turned the
// section on) only warn. A section absent from both sides compares
// nothing, so older envelopes diff as before.
func diffSection[T any](res *Result, id, name string, base, head []experiments.Spec[T], check func(key string, b, h *T)) {
	extra := pair(base, head, specKey[T],
		func(key string, i, j int) { check(key, &base[i].Summary, &head[j].Summary) },
		func(key string) { res.mismatch("%s: %s for [%s] missing from new results", id, name, key) })
	for _, key := range extra {
		res.note("%s: %s for [%s] only in new results", id, name, key)
	}
}

// diffIntervals compares the per-spec interval summaries carried in
// the envelopes' optional `intervals` section (schema v2+): the
// cycle-weighted IPC mean and the window-wide SBB coverage, each under
// the (usually looser) IVRTol relative tolerance.
func diffIntervals(res *Result, base, head *experiments.Report, opt Options) {
	id := base.ID
	ivOpt := opt
	ivOpt.RTol = opt.IVRTol
	diffSection(res, id, "intervals", base.Intervals, head.Intervals, func(key string, b, h *metrics.Summary) {
		res.Compared += 2
		checkCell(res, id, key,
			stats.Column{Name: "intervals.ipc_mean", Unit: stats.UnitIPC},
			b.IPCMean, h.IPCMean, ivOpt)
		checkCell(res, id, key,
			stats.Column{Name: "intervals.sbb_coverage"},
			b.SBBCoverage, h.SBBCoverage, ivOpt)
	})
}

// diffAttribution compares the per-spec miss-attribution summaries in
// the envelopes' optional `attribution` section (schema v3+). Every
// cause share, stall share, and the headline shadow-residency share is
// checked under the absolute AttribTol bound: attribution reports a
// mix, so the question is "did any slice of the pie move more than N
// points", independent of how rare the slice is. A cause or stall kind
// gone from the new summary fails.
func diffAttribution(res *Result, base, head *experiments.Report, opt Options) {
	id := base.ID
	diffSection(res, id, "attribution", base.Attribution, head.Attribution, func(key string, b, h *attrib.Summary) {
		checkShare(res, id, key, "attrib.shadow_resident_share",
			b.ShadowResidentShare, h.ShadowResidentShare, opt)
		pair(b.Causes, h.Causes, func(c attrib.CauseCount) string { return c.Cause },
			func(c string, i, j int) {
				checkShare(res, id, key, "attrib.cause."+c, b.Causes[i].Share, h.Causes[j].Share, opt)
			},
			func(c string) { res.mismatch("%s: [%s] attribution cause %q missing from new results", id, key, c) })
		pair(b.Stalls, h.Stalls, func(s attrib.StallCount) string { return s.Kind },
			func(s string, i, j int) {
				checkShare(res, id, key, "attrib.stall."+s, b.Stalls[i].Share, h.Stalls[j].Share, opt)
			},
			func(s string) { res.mismatch("%s: [%s] attribution stall %q missing from new results", id, key, s) })
	})
}

// metricName keys a sampled metric.
func metricName(m sim.MetricCI) string { return m.Name }

// diffSampling compares the per-spec sampled-simulation summaries in
// the envelopes' optional `sampling` section (schema v5+) as a
// regression gate: each metric's point estimate is checked under the
// ordinary RTol/ATol rule, like a table cell. Confidence widths are
// not diffed — they are a property of the interval spread, not a
// result. A metric gone from the new summary fails.
func diffSampling(res *Result, base, head *experiments.Report, opt Options) {
	id := base.ID
	diffSection(res, id, "sampling", base.Sampling, head.Sampling, func(key string, b, h *sim.SampleSummary) {
		pair(b.Metrics, h.Metrics, metricName, func(name string, i, j int) {
			res.Compared++
			checkCell(res, id, key, stats.Column{Name: "sampling." + name},
				b.Metrics[i].Mean, h.Metrics[j].Mean, opt)
		}, func(name string) {
			res.mismatch("%s: [%s] sampled metric %q missing from new results", id, key, name)
		})
	})
}

// diffSampleCI validates a sampled result set against a reference
// (Options.SampleCI): base is the reference — normally an exact run
// whose envelope carries CI-free echo rows (Runner.SampleEcho) — and
// head is the sampled run under test. Each metric must contain the
// reference value inside its stated 95% confidence interval plus the
// slack tolerances; the table, intervals, and attribution sections are
// ignored entirely, so an exact and a sampled run of the same
// experiment can be gated against each other even though their tables
// legitimately differ.
func diffSampleCI(res *Result, base, head *experiments.Report, opt Options) {
	id := base.ID
	if len(base.Sampling) == 0 {
		res.mismatch("%s: reference has no sampling section (run it with -sample-echo or -sample)", id)
		return
	}
	if len(head.Sampling) == 0 {
		res.mismatch("%s: sampled results have no sampling section (run with -sample)", id)
		return
	}
	pair(base.Sampling, head.Sampling, specKey[sim.SampleSummary], func(key string, i, j int) {
		bm, hm := base.Sampling[i].Summary.Metrics, head.Sampling[j].Summary.Metrics
		pair(bm, hm, metricName, func(name string, i, j int) {
			m, nm := bm[i], hm[j]
			res.Compared++
			tol := nm.CI + m.CI + opt.SampleATol + opt.SampleRTol*math.Abs(m.Mean)
			if math.Abs(nm.Mean-m.Mean) > tol {
				res.Findings = append(res.Findings, Finding{
					Experiment: id, Row: key, Column: "sampling." + name + " (ci-gate)",
					Old: m.Mean, New: nm.Mean, Rel: rel(m.Mean, nm.Mean),
				})
			}
		}, func(name string) { res.mismatch("%s: [%s] sampled metric %q missing", id, key, name) })
	}, func(key string) { res.mismatch("%s: sampling for [%s] missing from sampled results", id, key) })
}

// checkShare applies the absolute AttribTol bound to one share pair.
func checkShare(res *Result, id, key, name string, a, b float64, opt Options) {
	res.Compared++
	if math.Abs(b-a) > opt.AttribTol {
		res.Findings = append(res.Findings, Finding{
			Experiment: id, Row: key, Column: name, Unit: "share",
			Old: a, New: b, Rel: rel(a, b),
		})
	}
}

// checkCell applies the tolerance and sign-flip rules to one numeric
// cell pair.
func checkCell(res *Result, id, key string, col stats.Column, a, b float64, opt Options) {
	if col.Unit == stats.UnitSpeedup &&
		math.Abs(a) >= opt.FlipMin && math.Abs(b) >= opt.FlipMin &&
		math.Signbit(a) != math.Signbit(b) {
		res.Findings = append(res.Findings, Finding{
			Experiment: id, Row: key, Column: col.Name, Unit: col.Unit,
			Old: a, New: b, Rel: rel(a, b), SignFlip: true,
		})
		return
	}
	if math.Abs(b-a) > opt.ATol+opt.RTol*math.Abs(a) {
		res.Findings = append(res.Findings, Finding{
			Experiment: id, Row: key, Column: col.Name, Unit: col.Unit,
			Old: a, New: b, Rel: rel(a, b),
		})
	}
}

// rel returns |b-a|/|a|, Inf for a==0 with b!=0, 0 when both are 0.
func rel(a, b float64) float64 {
	if a == 0 {
		if b == 0 {
			return 0
		}
		return math.Inf(1)
	}
	return math.Abs(b-a) / math.Abs(a)
}
