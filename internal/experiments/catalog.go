package experiments

import "sort"

// Harness regenerates one paper artifact under the given options.
type Harness func(Options) (*Report, error)

// Catalog returns the full experiment registry, one Harness per
// reproducible artifact, keyed by the IDs cmd/skiaexp accepts. The map
// is rebuilt per call so callers may mutate their copy.
func Catalog() map[string]Harness {
	return map[string]Harness{
		"fig1":  func(o Options) (*Report, error) { return Fig1(o, nil) },
		"fig3":  func(o Options) (*Report, error) { return Fig3(o, nil) },
		"fig6":  Fig6,
		"fig13": Fig13,
		"fig14": Fig14,
		"fig15": Fig15,
		"fig16": Fig16,
		"fig17": Fig17,
		"fig18": Fig18,
		"bolt":  Bolt,
		"table1": func(Options) (*Report, error) {
			return Table1(), nil
		},
		"table2": func(Options) (*Report, error) {
			return Table2()
		},
		"ablation-index": AblationIndexPolicy,
		"ablation-pathcap": func(o Options) (*Report, error) {
			return AblationPathCap(o, nil)
		},
		"ablation-replacement": AblationReplacement,
		"ablation-sbdtobtb":    AblationInsertIntoBTB,
		"ablation-wrongpath":   AblationWrongPath,
		"ext-conds":            ExtensionShadowConds,
	}
}

// Order lists the catalog in presentation order (skiaexp -exp all).
var Order = []string{
	"table1", "table2",
	"fig1", "fig3", "fig6", "fig13", "fig14", "fig15", "fig16", "fig17", "fig18",
	"bolt",
	"ablation-index", "ablation-pathcap", "ablation-replacement",
	"ablation-sbdtobtb", "ablation-wrongpath",
	"ext-conds",
}

// IDs returns the catalog keys sorted alphabetically.
func IDs() []string {
	cat := Catalog()
	ids := make([]string, 0, len(cat))
	for id := range cat {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}
