// Package stats provides the derived metrics shared by every simulator
// component: misses per kilo-instruction, IPC, geometric means over
// benchmark suites, streaming histograms, and plain-text table
// rendering for the experiment harnesses in internal/experiments.
package stats

import (
	"encoding/json"
	"fmt"
	"math"
	"strings"
)

// MPKI returns events per thousand instructions. A zero instruction
// count yields 0 rather than NaN so partially-warmed runs stay printable.
func MPKI(events, instructions uint64) float64 {
	if instructions == 0 {
		return 0
	}
	return float64(events) * 1000 / float64(instructions)
}

// IPC returns instructions per cycle, 0 when cycles is 0.
func IPC(instructions, cycles uint64) float64 {
	if cycles == 0 {
		return 0
	}
	return float64(instructions) / float64(cycles)
}

// Speedup returns the relative speedup of ipc over base as a fraction
// (0.057 for +5.7%).
func Speedup(ipc, base float64) float64 {
	if base == 0 {
		return 0
	}
	return ipc/base - 1
}

// Geomean returns the geometric mean of xs. Non-positive entries are
// clamped to a tiny epsilon so a single degenerate benchmark cannot
// poison a suite aggregate; an empty slice returns 0.
func Geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		if x <= 0 {
			x = 1e-12
		}
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

// GeomeanSpeedup aggregates per-benchmark (ipc, base) pairs into a suite
// speedup fraction the way the paper reports geomean speedups: geomean
// of the per-benchmark ratios, minus one.
func GeomeanSpeedup(ipcs, bases []float64) float64 {
	if len(ipcs) != len(bases) || len(ipcs) == 0 {
		return 0
	}
	ratios := make([]float64, len(ipcs))
	for i := range ipcs {
		if bases[i] == 0 {
			ratios[i] = 1
			continue
		}
		ratios[i] = ipcs[i] / bases[i]
	}
	return Geomean(ratios) - 1
}

// Mean returns the arithmetic mean, 0 for empty input.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Percent formats a fraction as a signed percentage with two decimals.
func Percent(frac float64) string {
	return fmt.Sprintf("%+.2f%%", frac*100)
}

// CellKind discriminates the two Table cell types carried through the
// JSON serialization: free-form strings and numeric values.
type CellKind string

const (
	// CellStr is a label cell (benchmark name, config name, …).
	CellStr CellKind = "str"
	// CellNum is a numeric cell: it carries both the machine-readable
	// value and the rendered text used by the plain-text output.
	CellNum CellKind = "num"
)

// Cell is one typed table cell. Text is always the rendered form; for
// CellNum cells Value holds the underlying number so tools such as
// cmd/skiacmp can diff results without re-parsing formatted strings.
type Cell struct {
	Kind  CellKind
	Text  string
	Value float64
}

// Str builds a string cell.
func Str(s string) Cell { return Cell{Kind: CellStr, Text: s} }

// Num builds a numeric cell with an explicit rendering.
func Num(v float64, text string) Cell { return Cell{Kind: CellNum, Text: text, Value: v} }

type cellJSON struct {
	Kind  CellKind `json:"kind"`
	Text  string   `json:"text"`
	Value *float64 `json:"value,omitempty"`
}

// MarshalJSON emits {"kind","text"} for string cells and adds "value"
// for numeric cells.
func (c Cell) MarshalJSON() ([]byte, error) {
	j := cellJSON{Kind: c.Kind, Text: c.Text}
	if c.Kind == CellNum {
		v := c.Value
		j.Value = &v
	}
	return json.Marshal(j)
}

// UnmarshalJSON is the inverse of MarshalJSON.
func (c *Cell) UnmarshalJSON(b []byte) error {
	var j cellJSON
	if err := json.Unmarshal(b, &j); err != nil {
		return err
	}
	switch j.Kind {
	case CellStr, CellNum:
	default:
		return fmt.Errorf("stats: unknown cell kind %q", j.Kind)
	}
	*c = Cell{Kind: j.Kind, Text: j.Text}
	if j.Value != nil {
		c.Value = *j.Value
	}
	return nil
}

// Units a Column can declare. The unit tells consumers how to interpret
// a numeric column; UnitSpeedup additionally marks the sign as a
// "who wins" result, which cmd/skiacmp watches for flips.
const (
	UnitNone    = ""        // labels and untyped columns
	UnitCount   = "count"   // raw event counts
	UnitMPKI    = "mpki"    // events per kilo-instruction
	UnitIPC     = "ipc"     // instructions per cycle
	UnitFrac    = "frac"    // fraction of a whole (rendered raw or as a percent)
	UnitSpeedup = "speedup" // signed fraction; sign encodes who wins
	UnitKB      = "kb"      // kilobytes of storage
)

// Column describes one table column.
type Column struct {
	Name string `json:"name"`
	Unit string `json:"unit,omitempty"`
}

// Table renders aligned plain-text tables for the experiment harnesses
// and serializes to JSON with typed cells and per-column units.
type Table struct {
	cols []Column
	rows [][]Cell
}

// NewTable creates a table with the given column headers (no units).
func NewTable(header ...string) *Table {
	cols := make([]Column, len(header))
	for i, h := range header {
		cols[i] = Column{Name: h}
	}
	return &Table{cols: cols}
}

// SetUnits assigns units to the columns in order; extra units are
// dropped and unnamed trailing columns keep UnitNone. It returns the
// table for chaining with NewTable.
func (t *Table) SetUnits(units ...string) *Table {
	for i, u := range units {
		if i >= len(t.cols) {
			break
		}
		t.cols[i].Unit = u
	}
	return t
}

// Columns returns a copy of the column descriptors.
func (t *Table) Columns() []Column {
	return append([]Column(nil), t.cols...)
}

// NumRows returns the number of data rows.
func (t *Table) NumRows() int { return len(t.rows) }

// Row returns a copy of data row i.
func (t *Table) Row(i int) []Cell {
	return append([]Cell(nil), t.rows[i]...)
}

// AddCells appends a typed row; cells beyond the header width are
// dropped and missing cells render empty.
func (t *Table) AddCells(cells ...Cell) {
	row := make([]Cell, len(t.cols))
	for i := range row {
		if i < len(cells) {
			row[i] = cells[i]
		} else {
			row[i] = Str("")
		}
	}
	t.rows = append(t.rows, row)
}

// AddRow appends a row of string cells; cells beyond the header width
// are dropped and missing cells render empty.
func (t *Table) AddRow(cells ...string) {
	typed := make([]Cell, len(cells))
	for i, c := range cells {
		typed[i] = Str(c)
	}
	t.AddCells(typed...)
}

// AddRowf appends a row formatting each cell for convenience with
// mixed types. Numeric arguments become CellNum cells (floats rendered
// with three decimals), everything else a string cell via fmt.Sprint.
func (t *Table) AddRowf(cells ...any) {
	typed := make([]Cell, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			typed[i] = Num(v, fmt.Sprintf("%.3f", v))
		case int:
			typed[i] = Num(float64(v), fmt.Sprint(v))
		case uint64:
			typed[i] = Num(float64(v), fmt.Sprint(v))
		default:
			typed[i] = Str(fmt.Sprint(c))
		}
	}
	t.AddCells(typed...)
}

type tableJSON struct {
	Columns []Column `json:"columns"`
	Rows    [][]Cell `json:"rows"`
}

// MarshalJSON serializes the table as {"columns":[...],"rows":[[...]]}.
func (t *Table) MarshalJSON() ([]byte, error) {
	rows := t.rows
	if rows == nil {
		rows = [][]Cell{}
	}
	return json.Marshal(tableJSON{Columns: t.cols, Rows: rows})
}

// UnmarshalJSON is the inverse of MarshalJSON; it validates that every
// row matches the column count.
func (t *Table) UnmarshalJSON(b []byte) error {
	var j tableJSON
	if err := json.Unmarshal(b, &j); err != nil {
		return err
	}
	for i, r := range j.Rows {
		if len(r) != len(j.Columns) {
			return fmt.Errorf("stats: table row %d has %d cells, want %d", i, len(r), len(j.Columns))
		}
	}
	t.cols = j.Columns
	t.rows = j.Rows
	return nil
}

// String renders the table with column alignment.
func (t *Table) String() string {
	widths := make([]int, len(t.cols))
	for i, c := range t.cols {
		widths[i] = len(c.Name)
	}
	for _, r := range t.rows {
		for i, c := range r {
			if len(c.Text) > widths[i] {
				widths[i] = len(c.Text)
			}
		}
	}
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(c)
			b.WriteString(strings.Repeat(" ", widths[i]-len(c)))
		}
		b.WriteByte('\n')
	}
	header := make([]string, len(t.cols))
	for i, c := range t.cols {
		header[i] = c.Name
	}
	writeRow(header)
	sep := make([]string, len(t.cols))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, r := range t.rows {
		texts := make([]string, len(r))
		for i, c := range r {
			texts[i] = c.Text
		}
		writeRow(texts)
	}
	return b.String()
}

// histSubBuckets is the linear sub-division of each power-of-two
// bucket. 32 sub-buckets bound the relative quantile error of a
// positive sample by half a sub-bucket width: 1/64 ≈ 1.6% (see
// HistogramMaxRelError).
const histSubBuckets = 32

// HistogramMaxRelError bounds the relative error of Quantile for
// positive samples: each log2 bucket is split into histSubBuckets
// linear sub-buckets and a sample is reported as its sub-bucket
// midpoint, so the error is at most half a sub-bucket width relative
// to the bucket's lower bound.
const HistogramMaxRelError = 1.0 / (2 * histSubBuckets)

// Histogram tracks a sample distribution in streaming log2-bucket
// storage: O(1) per Observe and memory bounded by the value range
// (one counter per log-linear bucket between the lowest and highest
// observed), never by the sample count. Mean, Count, and the extreme
// quantiles (q<=0, q>=1) are exact; interior quantiles of positive
// samples are accurate to HistogramMaxRelError. Non-positive samples
// share a single bucket represented by their running mean (the
// diagnostics this backs — distances, occupancies, lifetimes — are
// non-negative). Every float is defined: -Inf joins the non-positive
// bucket; +Inf and NaN are counted in a bucket above every finite one,
// reported as Max; Min and Max are exact over the non-NaN samples (NaN
// when there are none); Mean follows IEEE arithmetic, so a NaN or
// opposing infinities make it NaN. The zero value is ready to use.
type Histogram struct {
	count    uint64
	sum      float64
	min, max float64
	// buckets[k-lo] counts the positive finite samples of bucket key
	// k = exp*histSubBuckets+sub, where v = frac*2^exp (math.Frexp)
	// and sub linearly sub-divides frac's [0.5, 1) range. The slice
	// spans exactly the lowest to the highest key observed; finite
	// keys lie in [-1073, 1025)*histSubBuckets, so it stays bounded.
	buckets []uint64
	lo      int
	// nonPos counts samples <= 0; nonPosSum tracks their mean.
	nonPos    uint64
	nonPosSum float64
	// nan counts NaN samples. NaN and +Inf sort above every finite
	// bucket, where Quantile reports Max.
	nan uint64
}

// bucketKey maps a positive finite sample to its log-linear bucket key.
func bucketKey(v float64) int {
	frac, exp := math.Frexp(v) // frac in [0.5, 1)
	sub := int((frac - 0.5) * (2 * histSubBuckets))
	if sub >= histSubBuckets {
		sub = histSubBuckets - 1
	}
	return exp*histSubBuckets + sub
}

// bucketMid returns the representative (midpoint) value of a key.
func bucketMid(key int) float64 {
	exp := key / histSubBuckets
	sub := key % histSubBuckets
	if sub < 0 { // Go rounds toward zero; normalize negative exps
		exp--
		sub += histSubBuckets
	}
	frac := 0.5 + (float64(sub)+0.5)/(2*histSubBuckets)
	return math.Ldexp(frac, exp)
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) { h.ObserveN(v, 1) }

// ObserveN records n samples of value v. It matches n calls of
// Observe(v) exactly whenever v*n and the running sum are exact in
// float64, as they are for integer samples summing below 2^53.
func (h *Histogram) ObserveN(v float64, n uint64) {
	if n == 0 {
		return
	}
	if v != v { // NaN: counted, but no part in Min and Max
		h.count += n
		h.sum += v
		h.nan += n
		return
	}
	if h.count == h.nan || v < h.min {
		h.min = v
	}
	if h.count == h.nan || v > h.max {
		h.max = v
	}
	h.count += n
	h.sum += v * float64(n)
	switch {
	case v <= 0:
		h.nonPos += n
		h.nonPosSum += v * float64(n)
	case v > math.MaxFloat64: // +Inf: counted above every bucket
	default:
		h.add(bucketKey(v), n)
	}
}

// add counts n samples in bucket key k, growing the bucket slice to
// exactly the span of keys seen.
func (h *Histogram) add(k int, n uint64) {
	switch {
	case len(h.buckets) == 0:
		h.buckets, h.lo = make([]uint64, 1), k
	case k < h.lo:
		b := make([]uint64, h.lo-k+len(h.buckets))
		copy(b[h.lo-k:], h.buckets)
		h.buckets, h.lo = b, k
	case k-h.lo >= len(h.buckets):
		b := make([]uint64, k-h.lo+1)
		copy(b, h.buckets)
		h.buckets = b
	}
	h.buckets[k-h.lo] += n
}

// Count returns the number of samples.
func (h *Histogram) Count() int { return int(h.count) }

// Quantile returns the q-th quantile (0 <= q <= 1) of the observed
// samples, 0 if empty. Endpoints are exact; interior quantiles of
// positive samples carry at most HistogramMaxRelError relative error.
func (h *Histogram) Quantile(q float64) float64 {
	if h.count == 0 {
		return 0
	}
	if q <= 0 {
		return h.Min()
	}
	if q >= 1 {
		return h.Max()
	}
	// Rank of the requested quantile, matching the sorted-sample
	// definition idx = q*(n-1) rounded to the containing sample.
	rank := uint64(q * float64(h.count-1))
	// The non-positive bucket sorts before every positive bucket.
	seen := h.nonPos
	if rank < seen {
		return h.nonPosSum / float64(h.nonPos)
	}
	for i, n := range h.buckets {
		seen += n
		if rank < seen {
			v := bucketMid(h.lo + i)
			// Clamp to the observed range so endpoint buckets cannot
			// report values outside [min, max].
			if v < h.min {
				v = h.min
			}
			if v > h.max {
				v = h.max
			}
			return v
		}
	}
	return h.Max()
}

// Mean returns the exact arithmetic mean of observed samples.
func (h *Histogram) Mean() float64 {
	if h.count == 0 {
		return 0
	}
	return h.sum / float64(h.count)
}

// Min and Max return the exact observed extremes (0 when empty).
func (h *Histogram) Min() float64 {
	switch h.count {
	case 0:
		return 0
	case h.nan:
		return math.NaN()
	}
	return h.min
}

// Max returns the exact maximum observed sample (0 when empty).
func (h *Histogram) Max() float64 {
	switch h.count {
	case 0:
		return 0
	case h.nan:
		return math.NaN()
	}
	return h.max
}
