package experiments

import (
	"strings"
	"testing"
)

// microOpts are the absolute minimum windows: these tests verify
// harness plumbing and report structure, not statistical quality.
func microOpts() Options {
	return Options{
		Warmup:     50_000,
		Measure:    150_000,
		Benchmarks: []string{"voter"},
	}
}

// TestCatalogRunsFullGrid runs every catalog harness at a micro window
// and checks that each simulating one ran every config label on every
// benchmark exactly once: a variant dropped or run twice puts the run
// count off the grid. Only the static tables simulate nothing.
func TestCatalogRunsFullGrid(t *testing.T) {
	if testing.Short() {
		t.Skip("every harness")
	}
	o := Options{Warmup: 20_000, Measure: 50_000, Benchmarks: []string{"voter"}}
	for id, h := range Catalog() {
		t.Run(id, func(t *testing.T) {
			rep, err := h(o)
			if err != nil {
				t.Fatal(err)
			}
			if rep.Table.NumRows() == 0 {
				t.Error("empty table")
			}
			m := rep.Meta
			if m.Sim == nil {
				if id != "table1" && id != "table2" {
					t.Error("no sim stats")
				}
				return
			}
			want := len(m.ConfigLabels) * len(m.Benchmarks)
			if want == 0 || m.Sim.Runs != want {
				t.Errorf("%d runs, want %d config labels x %d benchmarks",
					m.Sim.Runs, len(m.ConfigLabels), len(m.Benchmarks))
			}
		})
	}
}

func TestFig3Structure(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep")
	}
	rep, err := Fig3(microOpts(), []int{4096, 8192})
	if err != nil {
		t.Fatal(err)
	}
	checkReport(t, rep, "fig3", 2)
	for _, col := range []string{"btb+state", "btb+sbb", "infinite"} {
		if !strings.Contains(rep.Table.String(), col) {
			t.Errorf("fig3 lacks column %s", col)
		}
	}
}

func TestFig16Structure(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep")
	}
	rep, err := Fig16(microOpts())
	if err != nil {
		t.Fatal(err)
	}
	checkReport(t, rep, "fig16", 1)
	if len(rep.Notes) == 0 {
		t.Error("fig16 should carry the reduction note")
	}
}

func TestFig17Structure(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep")
	}
	rep, err := Fig17(microOpts())
	if err != nil {
		t.Fatal(err)
	}
	// 6 splits + 5 scales.
	checkReport(t, rep, "fig17", 11)
	tbl := rep.Table.String()
	if !strings.Contains(tbl, "split") || !strings.Contains(tbl, "scale") {
		t.Error("fig17 missing sweep rows")
	}
	// The default-split row must cost ~12.25KB.
	if !strings.Contains(tbl, "12.") {
		t.Error("fig17 lacks the 12.25KB-class row")
	}
}

func TestAblationIndexPolicyStructure(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep")
	}
	rep, err := AblationIndexPolicy(microOpts())
	if err != nil {
		t.Fatal(err)
	}
	checkReport(t, rep, "ablation-index", 2)
	for _, pol := range []string{"first", "merge"} {
		if !strings.Contains(rep.Table.String(), pol) {
			t.Errorf("missing policy %s", pol)
		}
	}
}

func TestAblationPathCapStructure(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep")
	}
	rep, err := AblationPathCap(microOpts(), []int{1, 6})
	if err != nil {
		t.Fatal(err)
	}
	checkReport(t, rep, "ablation-pathcap", 2)
}

func TestAblationReplacementStructure(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep")
	}
	rep, err := AblationReplacement(microOpts())
	if err != nil {
		t.Fatal(err)
	}
	checkReport(t, rep, "ablation-replacement", 3)
	if !strings.Contains(rep.Table.String(), "plain LRU") {
		t.Error("missing plain-LRU variant")
	}
}

func TestAblationInsertIntoBTBStructure(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep")
	}
	rep, err := AblationInsertIntoBTB(microOpts())
	if err != nil {
		t.Fatal(err)
	}
	checkReport(t, rep, "ablation-sbdtobtb", 2)
}

func TestAblationWrongPathStructure(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep")
	}
	rep, err := AblationWrongPath(microOpts())
	if err != nil {
		t.Fatal(err)
	}
	checkReport(t, rep, "ablation-wrongpath", 1)
}
