package stats

import (
	"encoding/json"
	"math"
	"reflect"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

func almostEqual(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestMPKI(t *testing.T) {
	if got := MPKI(50, 1000); !almostEqual(got, 50) {
		t.Errorf("MPKI = %v", got)
	}
	if got := MPKI(1, 1_000_000); !almostEqual(got, 0.001) {
		t.Errorf("MPKI = %v", got)
	}
	if got := MPKI(5, 0); got != 0 {
		t.Errorf("MPKI with zero insts = %v", got)
	}
}

func TestIPC(t *testing.T) {
	if got := IPC(100, 50); !almostEqual(got, 2) {
		t.Errorf("IPC = %v", got)
	}
	if got := IPC(100, 0); got != 0 {
		t.Errorf("IPC zero cycles = %v", got)
	}
}

func TestSpeedup(t *testing.T) {
	if got := Speedup(1.1, 1.0); !almostEqual(got, 0.1) {
		t.Errorf("Speedup = %v", got)
	}
	if got := Speedup(1.0, 0); got != 0 {
		t.Errorf("Speedup base 0 = %v", got)
	}
}

func TestGeomean(t *testing.T) {
	if got := Geomean([]float64{2, 8}); !almostEqual(got, 4) {
		t.Errorf("Geomean = %v", got)
	}
	if got := Geomean(nil); got != 0 {
		t.Errorf("Geomean(nil) = %v", got)
	}
	// Non-positive entries must not produce NaN.
	if got := Geomean([]float64{1, 0}); math.IsNaN(got) || math.IsInf(got, 0) {
		t.Errorf("Geomean with zero = %v", got)
	}
}

func TestGeomeanIsScaleInvariant(t *testing.T) {
	f := func(a, b, c float64) bool {
		clamp := func(v float64) float64 {
			v = math.Abs(v)
			if v > 1e6 || math.IsNaN(v) {
				v = math.Mod(v, 1e6)
			}
			return v + 0.1
		}
		xs := []float64{clamp(a), clamp(b), clamp(c)}
		g := Geomean(xs)
		scaled := make([]float64, len(xs))
		for i, x := range xs {
			scaled[i] = x * 3
		}
		g2 := Geomean(scaled)
		return math.Abs(g2-3*g) < 1e-6*math.Max(1, g)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestGeomeanSpeedup(t *testing.T) {
	ipcs := []float64{1.1, 1.1}
	bases := []float64{1.0, 1.0}
	if got := GeomeanSpeedup(ipcs, bases); !almostEqual(got, 0.1) {
		t.Errorf("GeomeanSpeedup = %v", got)
	}
	if got := GeomeanSpeedup([]float64{1}, []float64{1, 2}); got != 0 {
		t.Errorf("mismatched lengths = %v", got)
	}
	if got := GeomeanSpeedup([]float64{1}, []float64{0}); got != 0 {
		t.Errorf("zero base = %v", got)
	}
}

func TestMean(t *testing.T) {
	if got := Mean([]float64{1, 2, 3}); !almostEqual(got, 2) {
		t.Errorf("Mean = %v", got)
	}
	if got := Mean(nil); got != 0 {
		t.Errorf("Mean(nil) = %v", got)
	}
}

func TestPercent(t *testing.T) {
	if got := Percent(0.0564); got != "+5.64%" {
		t.Errorf("Percent = %q", got)
	}
	if got := Percent(-0.02); got != "-2.00%" {
		t.Errorf("Percent = %q", got)
	}
}

func TestTable(t *testing.T) {
	tb := NewTable("bench", "ipc")
	tb.AddRow("kafka", "0.91")
	tb.AddRowf("tpcc", 1.234567)
	out := tb.String()
	if !strings.Contains(out, "kafka") || !strings.Contains(out, "1.235") {
		t.Errorf("table output:\n%s", out)
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 { // header, separator, two rows
		t.Errorf("got %d lines:\n%s", len(lines), out)
	}
	// extra cells dropped, missing cells empty
	tb2 := NewTable("a")
	tb2.AddRow("1", "2", "3")
	tb2.AddRow()
	if !strings.Contains(tb2.String(), "1") {
		t.Error("row content lost")
	}
}

func TestHistogram(t *testing.T) {
	var h Histogram
	if h.Quantile(0.5) != 0 || h.Count() != 0 {
		t.Error("empty histogram should return zeros")
	}
	for i := 1; i <= 100; i++ {
		h.Observe(float64(i))
	}
	if h.Count() != 100 {
		t.Errorf("Count = %d", h.Count())
	}
	if q := h.Quantile(0); !almostEqual(q, 1) {
		t.Errorf("q0 = %v", q)
	}
	if q := h.Quantile(1); !almostEqual(q, 100) {
		t.Errorf("q1 = %v", q)
	}
	if q := h.Quantile(0.5); math.Abs(q-50.5) > 1 {
		t.Errorf("median = %v", q)
	}
	if m := h.Mean(); !almostEqual(m, 50.5) {
		t.Errorf("mean = %v", m)
	}
}

// TestHistogramAccuracyBound pins the streaming storage's contract:
// against an exact sorted-sample reference, every interior quantile of
// positive samples errs by at most HistogramMaxRelError (relative),
// endpoints and the mean are exact, and memory stays bounded by the
// value range rather than the sample count.
func TestHistogramAccuracyBound(t *testing.T) {
	var h Histogram
	// Log-spread samples over six orders of magnitude, deterministic.
	var exact []float64
	x := uint64(12345)
	for i := 0; i < 50_000; i++ {
		x = x*6364136223846793005 + 1442695040888963407 // LCG
		v := math.Exp(float64(x%1_000_000)/1_000_000*13.8) * 0.01
		exact = append(exact, v)
		h.Observe(v)
	}
	sorted := append([]float64(nil), exact...)
	sort.Float64s(sorted)
	quantAt := func(q float64) float64 {
		idx := q * float64(len(sorted)-1)
		lo := int(idx)
		frac := idx - float64(lo)
		if lo+1 >= len(sorted) {
			return sorted[lo]
		}
		return sorted[lo]*(1-frac) + sorted[lo+1]*frac
	}
	for _, q := range []float64{0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999} {
		want := quantAt(q)
		got := h.Quantile(q)
		if rel := math.Abs(got-want) / want; rel > HistogramMaxRelError+1e-9 {
			t.Errorf("q=%v: got %v want %v (rel err %.4f > bound %.4f)",
				q, got, want, rel, HistogramMaxRelError)
		}
	}
	if got := h.Quantile(0); got != sorted[0] {
		t.Errorf("q0 = %v, want exact min %v", got, sorted[0])
	}
	if got := h.Quantile(1); got != sorted[len(sorted)-1] {
		t.Errorf("q1 = %v, want exact max %v", got, sorted[len(sorted)-1])
	}
	var sum float64
	for _, v := range exact {
		sum += v
	}
	if mean := h.Mean(); math.Abs(mean-sum/float64(len(exact)))/mean > 1e-12 {
		t.Errorf("mean = %v, want exact %v", mean, sum/float64(len(exact)))
	}
	// Streaming storage: bucket count is bounded by the value range
	// (orders of magnitude x sub-buckets), not the 50k samples.
	if n := len(h.buckets); n > 24*histSubBuckets {
		t.Errorf("bucket count %d not bounded by value range", n)
	}
	if h.Min() != sorted[0] || h.Max() != sorted[len(sorted)-1] {
		t.Errorf("min/max = %v/%v", h.Min(), h.Max())
	}
}

// TestHistogramNonPositive covers the shared bucket for samples <= 0.
func TestHistogramNonPositive(t *testing.T) {
	var h Histogram
	for _, v := range []float64{-4, 0, -2, 10, 20} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Errorf("count = %d", h.Count())
	}
	if q := h.Quantile(0); q != -4 {
		t.Errorf("q0 = %v", q)
	}
	if q := h.Quantile(1); q != 20 {
		t.Errorf("q1 = %v", q)
	}
	// The three non-positive samples share their mean (-2) as the
	// representative for interior quantiles landing among them.
	if q := h.Quantile(0.25); q != -2 {
		t.Errorf("q0.25 = %v, want non-positive bucket mean -2", q)
	}
	if m := h.Mean(); !almostEqual(m, 24.0/5) {
		t.Errorf("mean = %v", m)
	}
}

func TestHistogramQuantileMonotonic(t *testing.T) {
	var h Histogram
	for _, v := range []float64{5, 1, 9, 3, 7, 2} {
		h.Observe(v)
	}
	prev := math.Inf(-1)
	for q := 0.0; q <= 1.0; q += 0.1 {
		v := h.Quantile(q)
		if v < prev {
			t.Fatalf("quantile not monotonic at q=%v: %v < %v", q, v, prev)
		}
		prev = v
	}
}

func TestTableTypedCellsAndUnits(t *testing.T) {
	tb := NewTable("bench", "ipc", "gain").SetUnits(UnitNone, UnitIPC, UnitSpeedup)
	tb.AddCells(Str("voter"), Num(2.262, "2.262"), Num(0.0753, "7.53%"))
	cols := tb.Columns()
	if cols[0].Unit != UnitNone || cols[1].Unit != UnitIPC || cols[2].Unit != UnitSpeedup {
		t.Errorf("units = %+v", cols)
	}
	if tb.NumRows() != 1 {
		t.Fatalf("NumRows = %d", tb.NumRows())
	}
	row := tb.Row(0)
	if row[0].Kind != CellStr || row[1].Kind != CellNum || row[1].Value != 2.262 {
		t.Errorf("row = %+v", row)
	}
	// Plain-text rendering uses the Text field.
	if out := tb.String(); !strings.Contains(out, "7.53%") {
		t.Errorf("rendering:\n%s", out)
	}
	// AddRowf produces numeric cells for numeric arguments.
	tb.AddRowf("kafka", 1.234567, uint64(42))
	row = tb.Row(1)
	if row[1].Kind != CellNum || row[1].Text != "1.235" || row[2].Value != 42 {
		t.Errorf("AddRowf row = %+v", row)
	}
}

func TestTableJSONRoundTrip(t *testing.T) {
	tb := NewTable("bench", "mpki", "gain").SetUnits(UnitNone, UnitMPKI, UnitSpeedup)
	tb.AddCells(Str("voter"), Num(3.68, "3.68"), Num(-0.021, "-2.10%"))
	tb.AddCells(Str("kafka"), Num(0, "0.00"), Num(0.0564, "+5.64%"))
	data, err := json.Marshal(tb)
	if err != nil {
		t.Fatal(err)
	}
	// Zero-valued numeric cells must keep their "value" key so kinds
	// survive the round trip.
	if !strings.Contains(string(data), `"value": 0`) && !strings.Contains(string(data), `"value":0`) {
		t.Errorf("zero num cell lost its value:\n%s", data)
	}
	var back Table
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(tb.Columns(), back.Columns()) {
		t.Errorf("columns: %+v != %+v", tb.Columns(), back.Columns())
	}
	if back.NumRows() != tb.NumRows() {
		t.Fatalf("rows: %d != %d", back.NumRows(), tb.NumRows())
	}
	for i := 0; i < tb.NumRows(); i++ {
		if !reflect.DeepEqual(tb.Row(i), back.Row(i)) {
			t.Errorf("row %d: %+v != %+v", i, tb.Row(i), back.Row(i))
		}
	}
	if tb.String() != back.String() {
		t.Error("rendering changed across round trip")
	}
}

func TestTableJSONRejectsMalformed(t *testing.T) {
	var tb Table
	// Row width must match the column count.
	bad := `{"columns":[{"name":"a"},{"name":"b"}],"rows":[[{"kind":"str","text":"x"}]]}`
	if err := json.Unmarshal([]byte(bad), &tb); err == nil {
		t.Error("ragged row accepted")
	}
	// Unknown cell kinds must be rejected, not silently coerced.
	bad = `{"columns":[{"name":"a"}],"rows":[[{"kind":"complex","text":"x"}]]}`
	if err := json.Unmarshal([]byte(bad), &tb); err == nil {
		t.Error("unknown cell kind accepted")
	}
}

func TestEmptyTableJSON(t *testing.T) {
	tb := NewTable("a", "b")
	data, err := json.Marshal(tb)
	if err != nil {
		t.Fatal(err)
	}
	var back Table
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.NumRows() != 0 || len(back.Columns()) != 2 {
		t.Errorf("empty table mangled: %+v", back)
	}
}

// mapHistogram is the sparse-map Histogram the dense bucket slice
// replaced, kept as the reference the dense storage must match.
type mapHistogram struct {
	count     uint64
	sum       float64
	min, max  float64
	buckets   map[int]uint64
	nonPos    uint64
	nonPosSum float64
}

func (h *mapHistogram) Observe(v float64) {
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

func (h *mapHistogram) Quantile(q float64) float64 {
	if h.count == 0 {
		return 0
	}
	if q <= 0 {
		return h.min
	}
	if q >= 1 {
		return h.max
	}
	rank := uint64(q * float64(h.count-1))
	var seen uint64
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
			return math.Min(math.Max(bucketMid(k), h.min), h.max)
		}
	}
	return h.max
}

// TestHistogramMatchesMapReference checks the dense buckets against
// the sparse-map reference over random samples spanning zero,
// fractions, and the 1.8e19-byte re-steer distances a wrapped
// phantom target produces: every summary statistic is bit-identical,
// and bucket storage never exceeds the observed key span.
func TestHistogramMatchesMapReference(t *testing.T) {
	x := uint64(99)
	next := func() uint64 {
		x = x*6364136223846793005 + 1442695040888963407
		return x >> 11
	}
	for trial := 0; trial < 200; trial++ {
		var h Histogram
		var ref mapHistogram
		lo, hi := math.MaxInt, math.MinInt
		for i, n := 0, int(next()%300); i < n; i++ {
			var v float64
			switch next() % 6 {
			case 0:
				v = 0
			case 1:
				v = float64(next()%1000) / 1000 // fractions
			case 2:
				v = float64(next() % 64) // occupancies
			case 3:
				v = 1.8e19 + float64(next()%1e6)*1e12 // wrapped targets
			case 4:
				v = math.Ldexp(1, int(next()%120)-60) * (1 + float64(next()%100)/100)
			default:
				v = float64(next() % 5e9)
			}
			h.Observe(v)
			ref.Observe(v)
			if v > 0 {
				k := bucketKey(v)
				lo, hi = min(lo, k), max(hi, k)
			}
		}
		refMean := 0.0
		if ref.count > 0 {
			refMean = ref.sum / float64(ref.count)
		}
		if h.Count() != int(ref.count) || h.Mean() != refMean {
			t.Fatalf("trial %d: count/mean %d/%v, reference %d/%v", trial, h.Count(), h.Mean(), ref.count, refMean)
		}
		if ref.count > 0 && (h.Min() != ref.min || h.Max() != ref.max) {
			t.Fatalf("trial %d: min/max %v/%v, reference %v/%v", trial, h.Min(), h.Max(), ref.min, ref.max)
		}
		for _, q := range []float64{0, 0.5, 0.9, 0.99, 1} {
			if got, want := h.Quantile(q), ref.Quantile(q); got != want {
				t.Fatalf("trial %d: q%v = %v, reference %v", trial, q, got, want)
			}
		}
		span := 0
		if hi >= lo {
			span = hi - lo + 1
		}
		if len(h.buckets) != span || cap(h.buckets) != span {
			t.Fatalf("trial %d: bucket storage len %d cap %d, observed key span %d", trial, len(h.buckets), cap(h.buckets), span)
		}
	}
}

// TestHistogramNonFinite pins what Observe does with NaN and ±Inf:
// -Inf joins the non-positive bucket, +Inf and NaN count above every
// finite bucket, Count stays exact, Min and Max ignore NaN, and no
// sample grows the bucket slice beyond the finite keys observed.
func TestHistogramNonFinite(t *testing.T) {
	inf, nan := math.Inf(1), math.NaN()
	var h Histogram
	for _, v := range []float64{3, inf, nan, math.Inf(-1), 5, nan} {
		h.Observe(v)
	}
	if h.Count() != 6 {
		t.Errorf("Count = %d, want 6", h.Count())
	}
	if h.Min() != math.Inf(-1) || h.Max() != inf {
		t.Errorf("Min/Max = %v/%v, want -Inf/+Inf", h.Min(), h.Max())
	}
	if q := h.Quantile(0.99); q != inf {
		t.Errorf("p99 = %v, want +Inf (the top bucket reports Max)", q)
	}
	// Sorted: -Inf, 3, 5, then +Inf and the NaNs; rank 2 is 5.
	if q, want := h.Quantile(0.5), bucketMid(bucketKey(5)); q != want {
		t.Errorf("p50 = %v, want %v (5's bucket)", q, want)
	}
	if !math.IsNaN(h.Mean()) {
		t.Errorf("Mean = %v, want NaN", h.Mean())
	}
	if want := bucketKey(5) - bucketKey(3) + 1; len(h.buckets) != want {
		t.Errorf("buckets span %d keys, want %d (finite samples only)", len(h.buckets), want)
	}

	var only Histogram
	only.Observe(nan)
	if only.Count() != 1 || !math.IsNaN(only.Min()) || !math.IsNaN(only.Max()) || !math.IsNaN(only.Quantile(0.5)) {
		t.Errorf("all-NaN histogram: count %d min %v max %v p50 %v", only.Count(), only.Min(), only.Max(), only.Quantile(0.5))
	}
	only.Observe(2)
	if only.Min() != 2 || only.Max() != 2 {
		t.Errorf("after NaN then 2: min/max %v/%v, want 2/2", only.Min(), only.Max())
	}

	var pos Histogram
	pos.Observe(inf)
	pos.Observe(1)
	if pos.Mean() != inf || pos.Min() != 1 || pos.Max() != inf || len(pos.buckets) != 1 {
		t.Errorf("+Inf histogram: mean %v min %v max %v buckets %d", pos.Mean(), pos.Min(), pos.Max(), len(pos.buckets))
	}
}

// TestHistogramObserveNMatchesObserve checks the batched form against
// repeated single observations for integer samples.
func TestHistogramObserveNMatchesObserve(t *testing.T) {
	var one, batch Histogram
	for v := 0; v < 40; v++ {
		for i := 0; i < v%7; i++ {
			one.Observe(float64(v))
		}
		batch.ObserveN(float64(v), uint64(v%7))
	}
	if !reflect.DeepEqual(one, batch) {
		t.Fatalf("ObserveN state %+v, Observe state %+v", batch, one)
	}
}
