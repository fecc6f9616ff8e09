// Package stats provides the counters and derived metrics shared by
// every simulator component: misses per kilo-instruction, IPC, geometric
// means over benchmark suites, and plain-text table rendering for the
// experiment harnesses in internal/experiments.
package stats

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
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

// Counter is a named monotonically-increasing event count.
type Counter struct {
	Name  string
	Value uint64
}

// Set is an ordered collection of named counters. The zero value is
// ready to use.
type Set struct {
	order []string
	vals  map[string]uint64
}

// NewSet returns an empty counter set.
func NewSet() *Set {
	return &Set{vals: make(map[string]uint64)}
}

// Add increments the named counter by n, creating it on first use.
func (s *Set) Add(name string, n uint64) {
	if s.vals == nil {
		s.vals = make(map[string]uint64)
	}
	if _, ok := s.vals[name]; !ok {
		s.order = append(s.order, name)
	}
	s.vals[name] += n
}

// Inc increments the named counter by one.
func (s *Set) Inc(name string) { s.Add(name, 1) }

// Get returns the counter value, 0 if absent.
func (s *Set) Get(name string) uint64 {
	if s.vals == nil {
		return 0
	}
	return s.vals[name]
}

// Counters returns the counters in insertion order.
func (s *Set) Counters() []Counter {
	out := make([]Counter, 0, len(s.order))
	for _, n := range s.order {
		out = append(out, Counter{Name: n, Value: s.vals[n]})
	}
	return out
}

// Reset zeroes all counters while preserving their registration order.
func (s *Set) Reset() {
	for k := range s.vals {
		s.vals[k] = 0
	}
}

// Merge adds all of other's counters into s.
func (s *Set) Merge(other *Set) {
	if other == nil {
		return
	}
	for _, c := range other.Counters() {
		s.Add(c.Name, c.Value)
	}
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
// (one counter per occupied log-linear bucket), never by the sample
// count. Mean, Count, and the extreme quantiles (q<=0, q>=1) are
// exact; interior quantiles of positive samples are accurate to
// HistogramMaxRelError. Non-positive samples share a single bucket
// represented by their running mean (the diagnostics this backs —
// distances, occupancies, lifetimes — are non-negative). The zero
// value is ready to use.
type Histogram struct {
	count    uint64
	sum      float64
	min, max float64
	// buckets maps exp*histSubBuckets+sub -> count for positive
	// samples, where v = frac*2^exp (math.Frexp) and sub linearly
	// sub-divides frac's [0.5, 1) range.
	buckets map[int]uint64
	// nonPos counts samples <= 0; nonPosSum tracks their mean.
	nonPos    uint64
	nonPosSum float64
}

// bucketKey maps a positive sample to its log-linear bucket key.
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
func (h *Histogram) Observe(v float64) {
	if h.count == 0 || v < h.min {
		h.min = v
	}
	if h.count == 0 || v > h.max {
		h.max = v
	}
	h.count++
	h.sum += v
	if v <= 0 {
		h.nonPos++
		h.nonPosSum += v
		return
	}
	if h.buckets == nil {
		h.buckets = make(map[int]uint64)
	}
	h.buckets[bucketKey(v)]++
}

// Merge folds every sample recorded in other into h, leaving other
// unchanged. The merge is exact with respect to the histogram's own
// storage: bucket counts, the non-positive lane, count, sum, and the
// min/max extremes all add, so quantiles of the merged histogram equal
// quantiles of a histogram that observed both sample streams directly
// (merge-then-quantile == quantile-of-merged), so per-shard
// histograms roll up without re-observing raw samples.
func (h *Histogram) Merge(other *Histogram) {
	if other == nil || other.count == 0 {
		return
	}
	if h.count == 0 || other.min < h.min {
		h.min = other.min
	}
	if h.count == 0 || other.max > h.max {
		h.max = other.max
	}
	h.count += other.count
	h.sum += other.sum
	h.nonPos += other.nonPos
	h.nonPosSum += other.nonPosSum
	if len(other.buckets) > 0 && h.buckets == nil {
		h.buckets = make(map[int]uint64, len(other.buckets))
	}
	//skia:detmap-ok commutative += accumulation; no ordered output
	for k, n := range other.buckets {
		h.buckets[k] += n
	}
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
		return h.min
	}
	if q >= 1 {
		return h.max
	}
	// Rank of the requested quantile, matching the sorted-sample
	// definition idx = q*(n-1) rounded to the containing sample.
	rank := uint64(q * float64(h.count-1))
	var seen uint64
	// The non-positive bucket sorts before every positive bucket.
	if h.nonPos > 0 {
		seen += h.nonPos
		if rank < seen {
			return h.nonPosSum / float64(h.nonPos)
		}
	}
	keys := make([]int, 0, len(h.buckets))
	for k := range h.buckets {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	for _, k := range keys {
		seen += h.buckets[k]
		if rank < seen {
			v := bucketMid(k)
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
	return h.max
}

// Sum returns the exact sum of observed samples (0 when empty).
func (h *Histogram) Sum() float64 { return h.sum }

// Bucket is one cumulative bucket of an exported histogram view:
// Count samples were ≤ UpperBound. The slice form is the
// Prometheus-style cumulative rendering.
type Bucket struct {
	// UpperBound is the bucket's upper bound.
	UpperBound float64
	// Count is cumulative: the number of samples at or below
	// UpperBound (up to the log2 quantization noted on Log2Buckets).
	Count uint64
}

// Log2Buckets exports the histogram as cumulative power-of-two
// buckets, ascending, ending with a bucket whose Count equals Count().
// Non-positive samples report under an UpperBound-0 bucket; each
// positive sample v lands in the bucket with UpperBound 2^ceil(log2 v)
// — samples exactly on a power of two are counted one bucket up, an
// at-most-one-octave quantization that matches the histogram's
// internal log-linear storage. Returns nil when empty.
func (h *Histogram) Log2Buckets() []Bucket {
	if h.count == 0 {
		return nil
	}
	// Merge the 32 linear sub-buckets of each octave into one bound.
	byExp := make(map[int]uint64)
	//skia:detmap-ok commutative += accumulation; exps are sorted before any ordered output
	for k, n := range h.buckets {
		exp := k / histSubBuckets
		if k < 0 && k%histSubBuckets != 0 { // Go truncates toward zero
			exp--
		}
		byExp[exp] += n
	}
	exps := make([]int, 0, len(byExp))
	for e := range byExp {
		exps = append(exps, e)
	}
	sort.Ints(exps)
	out := make([]Bucket, 0, len(exps)+1)
	var cum uint64
	if h.nonPos > 0 {
		cum = h.nonPos
		out = append(out, Bucket{UpperBound: 0, Count: cum})
	}
	for _, e := range exps {
		cum += byExp[e]
		out = append(out, Bucket{UpperBound: math.Ldexp(1, e), Count: cum})
	}
	return out
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
	if h.count == 0 {
		return 0
	}
	return h.min
}

// Max returns the exact maximum observed sample (0 when empty).
func (h *Histogram) Max() float64 {
	if h.count == 0 {
		return 0
	}
	return h.max
}
