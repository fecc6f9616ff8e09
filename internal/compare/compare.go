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

	"repro/internal/experiments"
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

// rowKey identifies a row by its label (string-kind) cells so rows
// still pair up when row order shifts. Tables whose rows carry no
// string cells fall back to positional pairing via the duplicate-key
// occurrence index in pairRows.
func rowKey(row []stats.Cell) string {
	var parts []string
	for _, c := range row {
		if c.Kind == stats.CellStr && c.Text != "" {
			parts = append(parts, c.Text)
		}
	}
	return strings.Join(parts, "/")
}

// pairRows indexes rows by key, disambiguating duplicates by
// occurrence order.
func pairRows(t *stats.Table) map[string][]stats.Cell {
	counts := make(map[string]int)
	out := make(map[string][]stats.Cell)
	for i := 0; i < t.NumRows(); i++ {
		row := t.Row(i)
		k := rowKey(row)
		if n := counts[k]; n > 0 {
			k = fmt.Sprintf("%s#%d", k, n)
		}
		counts[rowKey(row)]++
		out[k] = append([]stats.Cell(nil), row...)
	}
	return out
}

// Diff compares two report sets. base is the reference; regressions
// are judged from its point of view.
func Diff(base, head map[string]*experiments.Report, opt Options) *Result {
	opt = opt.withDefaults()
	res := &Result{}
	var ids []string
	for id := range base {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		b, ok := head[id]
		if !ok {
			res.Mismatches = append(res.Mismatches,
				fmt.Sprintf("experiment %q missing from new results", id))
			continue
		}
		diffReport(res, base[id], b, opt)
	}
	var extra []string
	for id := range head {
		if _, ok := base[id]; !ok {
			extra = append(extra, id)
		}
	}
	sort.Strings(extra)
	for _, id := range extra {
		res.Warnings = append(res.Warnings,
			fmt.Sprintf("experiment %q only in new results", id))
	}
	return res
}

// diffReport compares one experiment's tables cell by cell.
func diffReport(res *Result, base, head *experiments.Report, opt Options) {
	if opt.SampleCI {
		diffSampleCI(res, base, head, opt)
		return
	}
	id := base.ID
	oldCols := base.Table.Columns()
	newCols := head.Table.Columns()
	newColIdx := make(map[string]int, len(newCols))
	for i, c := range newCols {
		newColIdx[c.Name] = i
	}
	for _, c := range newCols {
		found := false
		for _, oc := range oldCols {
			if oc.Name == c.Name {
				found = true
				break
			}
		}
		if !found {
			res.Warnings = append(res.Warnings,
				fmt.Sprintf("%s: column %q only in new results", id, c.Name))
		}
	}

	newRows := pairRows(head.Table)
	oldRowSeen := make(map[string]bool)
	counts := make(map[string]int)
	for i := 0; i < base.Table.NumRows(); i++ {
		row := base.Table.Row(i)
		key := rowKey(row)
		if n := counts[key]; n > 0 {
			key = fmt.Sprintf("%s#%d", key, n)
		}
		counts[rowKey(row)]++
		oldRowSeen[key] = true
		newRow, ok := newRows[key]
		if !ok {
			res.Mismatches = append(res.Mismatches,
				fmt.Sprintf("%s: row [%s] missing from new results", id, key))
			continue
		}
		for ci, col := range oldCols {
			nj, ok := newColIdx[col.Name]
			if !ok {
				if i == 0 {
					res.Mismatches = append(res.Mismatches,
						fmt.Sprintf("%s: column %q missing from new results", id, col.Name))
				}
				continue
			}
			a, b := row[ci], newRow[nj]
			if a.Kind != b.Kind {
				res.Mismatches = append(res.Mismatches,
					fmt.Sprintf("%s: [%s] %s: cell kind changed %s -> %s",
						id, key, col.Name, a.Kind, b.Kind))
				continue
			}
			if a.Kind != stats.CellNum {
				continue
			}
			res.Compared++
			checkCell(res, id, key, col, a.Value, b.Value, opt)
		}
	}
	var newOnly []string
	for key := range newRows {
		if !oldRowSeen[key] {
			newOnly = append(newOnly, key)
		}
	}
	sort.Strings(newOnly)
	for _, key := range newOnly {
		res.Warnings = append(res.Warnings,
			fmt.Sprintf("%s: row [%s] only in new results", id, key))
	}
	diffIntervals(res, base, head, opt)
	diffAttribution(res, base, head, opt)
	diffSampling(res, base, head, opt)
}

// specKey identifies one spec's envelope section entry the way table
// rows are keyed: benchmark plus config label.
func specKey(bench, label string) string {
	if label == "" {
		return bench
	}
	return bench + "/" + label
}

// diffIntervals compares the per-spec interval summaries carried in
// the envelopes' optional `intervals` section (schema v2+): the
// cycle-weighted IPC mean and the window-wide SBB coverage, each under
// the (usually looser) IVRTol relative tolerance. Specs present in the
// base but gone from the new set fail; additions — e.g. the new run
// turned collection on — only warn. Reports without the section on
// either side are skipped entirely, so v1 envelopes diff unchanged.
func diffIntervals(res *Result, base, head *experiments.Report, opt Options) {
	if len(base.Intervals) == 0 && len(head.Intervals) == 0 {
		return
	}
	id := base.ID
	newByKey := make(map[string]sim.SpecIntervals, len(head.Intervals))
	for _, iv := range head.Intervals {
		newByKey[specKey(iv.Benchmark, iv.Label)] = iv
	}
	seen := make(map[string]bool, len(base.Intervals))
	for _, b := range base.Intervals {
		key := specKey(b.Benchmark, b.Label)
		seen[key] = true
		h, ok := newByKey[key]
		if !ok {
			res.Mismatches = append(res.Mismatches,
				fmt.Sprintf("%s: intervals for [%s] missing from new results", id, key))
			continue
		}
		ivOpt := opt
		ivOpt.RTol = opt.IVRTol
		res.Compared += 2
		checkCell(res, id, key,
			stats.Column{Name: "intervals.ipc_mean", Unit: stats.UnitIPC},
			b.Summary.IPCMean, h.Summary.IPCMean, ivOpt)
		checkCell(res, id, key,
			stats.Column{Name: "intervals.sbb_coverage"},
			b.Summary.SBBCoverage, h.Summary.SBBCoverage, ivOpt)
	}
	for _, iv := range head.Intervals {
		if key := specKey(iv.Benchmark, iv.Label); !seen[key] {
			res.Warnings = append(res.Warnings,
				fmt.Sprintf("%s: intervals for [%s] only in new results", id, key))
		}
	}
}

// diffAttribution compares the per-spec miss-attribution summaries in
// the envelopes' optional `attribution` section (schema v3+). Every
// cause share, stall share, and the headline shadow-residency share is
// checked under the absolute AttribTol bound: attribution reports a
// mix, so the question is "did any slice of the pie move more than N
// points", independent of how rare the slice is. Missing specs fail;
// additions warn; absent sections skip (older envelopes diff as
// before).
func diffAttribution(res *Result, base, head *experiments.Report, opt Options) {
	if len(base.Attribution) == 0 && len(head.Attribution) == 0 {
		return
	}
	id := base.ID
	newByKey := make(map[string]sim.SpecAttribution, len(head.Attribution))
	for _, at := range head.Attribution {
		newByKey[specKey(at.Benchmark, at.Label)] = at
	}
	seen := make(map[string]bool, len(base.Attribution))
	for _, b := range base.Attribution {
		key := specKey(b.Benchmark, b.Label)
		seen[key] = true
		h, ok := newByKey[key]
		if !ok {
			res.Mismatches = append(res.Mismatches,
				fmt.Sprintf("%s: attribution for [%s] missing from new results", id, key))
			continue
		}
		checkShare(res, id, key, "attrib.shadow_resident_share",
			b.Summary.ShadowResidentShare, h.Summary.ShadowResidentShare, opt)
		newCause := make(map[string]float64, len(h.Summary.Causes))
		for _, c := range h.Summary.Causes {
			newCause[c.Cause] = c.Share
		}
		for _, c := range b.Summary.Causes {
			nv, ok := newCause[c.Cause]
			if !ok {
				res.Mismatches = append(res.Mismatches,
					fmt.Sprintf("%s: [%s] attribution cause %q missing from new results", id, key, c.Cause))
				continue
			}
			checkShare(res, id, key, "attrib.cause."+c.Cause, c.Share, nv, opt)
		}
		newStall := make(map[string]float64, len(h.Summary.Stalls))
		for _, s := range h.Summary.Stalls {
			newStall[s.Kind] = s.Share
		}
		for _, s := range b.Summary.Stalls {
			nv, ok := newStall[s.Kind]
			if !ok {
				res.Mismatches = append(res.Mismatches,
					fmt.Sprintf("%s: [%s] attribution stall %q missing from new results", id, key, s.Kind))
				continue
			}
			checkShare(res, id, key, "attrib.stall."+s.Kind, s.Share, nv, opt)
		}
	}
	for _, at := range head.Attribution {
		if key := specKey(at.Benchmark, at.Label); !seen[key] {
			res.Warnings = append(res.Warnings,
				fmt.Sprintf("%s: attribution for [%s] only in new results", id, key))
		}
	}
}

// diffSampling compares the per-spec sampled-simulation summaries in
// the envelopes' optional `sampling` section (schema v5+) as a
// regression gate: each metric's point estimate is checked under the
// ordinary RTol/ATol rule, like a table cell. Confidence widths are
// not diffed — they are a property of the interval spread, not a
// result. Missing specs or metrics fail; additions warn; absent
// sections skip (older envelopes diff as before).
func diffSampling(res *Result, base, head *experiments.Report, opt Options) {
	if len(base.Sampling) == 0 && len(head.Sampling) == 0 {
		return
	}
	id := base.ID
	newByKey := make(map[string]sim.SpecSampling, len(head.Sampling))
	for _, s := range head.Sampling {
		newByKey[specKey(s.Benchmark, s.Label)] = s
	}
	seen := make(map[string]bool, len(base.Sampling))
	for _, b := range base.Sampling {
		key := specKey(b.Benchmark, b.Label)
		seen[key] = true
		h, ok := newByKey[key]
		if !ok {
			res.Mismatches = append(res.Mismatches,
				fmt.Sprintf("%s: sampling for [%s] missing from new results", id, key))
			continue
		}
		newMetric := metricsByName(h.Summary.Metrics)
		for _, m := range b.Summary.Metrics {
			nm, ok := newMetric[m.Name]
			if !ok {
				res.Mismatches = append(res.Mismatches,
					fmt.Sprintf("%s: [%s] sampled metric %q missing from new results", id, key, m.Name))
				continue
			}
			res.Compared++
			checkCell(res, id, key,
				stats.Column{Name: "sampling." + m.Name}, m.Mean, nm.Mean, opt)
		}
	}
	for _, s := range head.Sampling {
		if key := specKey(s.Benchmark, s.Label); !seen[key] {
			res.Warnings = append(res.Warnings,
				fmt.Sprintf("%s: sampling for [%s] only in new results", id, key))
		}
	}
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
		res.Mismatches = append(res.Mismatches,
			fmt.Sprintf("%s: reference has no sampling section (run it with -sample-echo or -sample)", id))
		return
	}
	if len(head.Sampling) == 0 {
		res.Mismatches = append(res.Mismatches,
			fmt.Sprintf("%s: sampled results have no sampling section (run with -sample)", id))
		return
	}
	newByKey := make(map[string]sim.SpecSampling, len(head.Sampling))
	for _, s := range head.Sampling {
		newByKey[specKey(s.Benchmark, s.Label)] = s
	}
	for _, b := range base.Sampling {
		key := specKey(b.Benchmark, b.Label)
		h, ok := newByKey[key]
		if !ok {
			res.Mismatches = append(res.Mismatches,
				fmt.Sprintf("%s: sampling for [%s] missing from sampled results", id, key))
			continue
		}
		newMetric := metricsByName(h.Summary.Metrics)
		for _, m := range b.Summary.Metrics {
			nm, ok := newMetric[m.Name]
			if !ok {
				res.Mismatches = append(res.Mismatches,
					fmt.Sprintf("%s: [%s] sampled metric %q missing", id, key, m.Name))
				continue
			}
			res.Compared++
			tol := nm.CI + m.CI + opt.SampleATol + opt.SampleRTol*math.Abs(m.Mean)
			if math.Abs(nm.Mean-m.Mean) > tol {
				res.Findings = append(res.Findings, Finding{
					Experiment: id, Row: key, Column: "sampling." + m.Name + " (ci-gate)",
					Old: m.Mean, New: nm.Mean, Rel: rel(m.Mean, nm.Mean),
				})
			}
		}
	}
}

// metricsByName indexes a sampled metric list for pairing.
func metricsByName(ms []sim.MetricCI) map[string]sim.MetricCI {
	out := make(map[string]sim.MetricCI, len(ms))
	for _, m := range ms {
		out[m.Name] = m
	}
	return out
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
