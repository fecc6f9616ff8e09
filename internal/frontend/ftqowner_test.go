package frontend

import (
	"strconv"
	"strings"
	"testing"
	"unsafe"

	"repro/internal/ittage"
	"repro/internal/tage"
)

// condsOwners maps each Conds backing array held by f.cur or a live FTQ
// slot to its holder, failing when two holders share one array. The
// returned map feeds the cross-copy check after a Clone.
func condsOwners(t *testing.T, f *FrontEnd, when string) map[*CondRec]string {
	t.Helper()
	owners := map[*CondRec]string{}
	own := func(s []CondRec, who string) {
		if cap(s) == 0 {
			return
		}
		p := unsafe.SliceData(s)
		if prev, ok := owners[p]; ok {
			t.Fatalf("%s: %s and %s share a Conds backing array", when, prev, who)
		}
		owners[p] = who
	}
	own(f.cur.Conds, "cur")
	for i := 0; i < f.q.Len(); i++ {
		own(f.q.Slot(i).Conds, "FTQ slot "+strconv.Itoa(i))
	}
	return owners
}

// stepChecked runs f for n decoded instructions, checking Conds
// ownership after every cycle, and returns how many cycles saw at least
// one queued block with recorded conditionals.
func stepChecked(t *testing.T, f *FrontEnd, n uint64, when string) int {
	t.Helper()
	var decoded uint64
	withConds := 0
	for decoded < n && !f.Done() {
		decoded += uint64(f.Step(64))
		condsOwners(t, f, when)
		for i := 0; i < f.q.Len(); i++ {
			if len(f.q.Slot(i).Conds) > 0 {
				withConds++
				break
			}
		}
	}
	if err := f.Err(); err != nil {
		t.Fatal(err)
	}
	return withConds
}

// TestCondsSingleOwner pins the FTQ's buffer discipline: decode swaps
// Conds arrays with the head slot instead of copying or pooling them,
// so f.cur and every live slot must each hold a distinct array — across
// decode and execute re-steers, and in a clone, which must also share
// no array with its original.
func TestCondsSingleOwner(t *testing.T) {
	f, err := New(SkiaConfig(), voterWorkload(t))
	if err != nil {
		t.Fatal(err)
	}
	f.FastForwardWarm(50_000)
	if n := stepChecked(t, f, 100_000, "warmed run"); n == 0 {
		t.Fatal("no queued block ever recorded a not-taken conditional; the check is vacuous")
	}
	if st := f.Stats(); st.DecodeResteers == 0 || st.ExecResteers == 0 {
		t.Fatalf("run had %d decode and %d execute re-steers; need both", st.DecodeResteers, st.ExecResteers)
	}

	c := f.Clone()
	orig := condsOwners(t, f, "original at clone")
	for p, who := range condsOwners(t, c, "clone") {
		if prev, ok := orig[p]; ok {
			t.Fatalf("clone's %s shares a Conds backing array with the original's %s", who, prev)
		}
	}
	stepChecked(t, c, 50_000, "clone run")
	stepChecked(t, f, 50_000, "original after clone")
}

// TestNewRejectsBadPredictorConfigs checks that predictor geometries
// the tables cannot index fail New with an error instead of panicking
// later.
func TestNewRejectsBadPredictorConfigs(t *testing.T) {
	w := testWorkload(t, nil)
	cases := []struct {
		name   string
		tage   func(*tage.Config)
		ittage func(*ittage.Config)
	}{
		{"tage NumTables 0", func(c *tage.Config) { c.NumTables = 0 }, nil},
		{"tage NumTables 17", func(c *tage.Config) { c.NumTables = 17 }, nil},
		{"tage LogTagged 0", func(c *tage.Config) { c.LogTagged = 0 }, nil},
		{"tage TagBits 1", func(c *tage.Config) { c.TagBits = 1 }, nil},
		{"tage LogTagged 17", func(c *tage.Config) { c.LogTagged = 17 }, nil},
		{"tage TagBits 17", func(c *tage.Config) { c.TagBits = 17 }, nil},
		{"tage MinHist 0", func(c *tage.Config) { c.MinHist = 0 }, nil},
		{"tage MinHist > MaxHist", func(c *tage.Config) { c.MinHist, c.MaxHist = 40, 20 }, nil},
		{"ittage NumTables 0", nil, func(c *ittage.Config) { c.NumTables = 0 }},
		{"ittage NumTables 17", nil, func(c *ittage.Config) { c.NumTables = 17 }},
		{"ittage LogTagged 0", nil, func(c *ittage.Config) { c.LogTagged = 0 }},
		{"ittage TagBits 0", nil, func(c *ittage.Config) { c.TagBits = 0 }},
		{"ittage MinHist 0", nil, func(c *ittage.Config) { c.MinHist = 0 }},
		{"ittage MinHist > MaxHist", nil, func(c *ittage.Config) { c.MinHist, c.MaxHist = 40, 20 }},
	}
	for _, tc := range cases {
		cfg := SkiaConfig()
		if tc.tage != nil {
			tc.tage(&cfg.TAGE)
		}
		if tc.ittage != nil {
			tc.ittage(&cfg.ITTAGE)
		}
		f, err := New(cfg, w)
		if err == nil || f != nil {
			t.Errorf("%s: New = %v, %v; want nil and an error", tc.name, f, err)
			continue
		}
		if pkg := strings.Fields(tc.name)[0]; !strings.Contains(err.Error(), "frontend: "+pkg+":") {
			t.Errorf("%s: error %q does not name %s", tc.name, err, pkg)
		}
	}
	// The boundary geometries are accepted.
	cfg := SkiaConfig()
	cfg.TAGE.NumTables, cfg.TAGE.TagBits, cfg.TAGE.MinHist, cfg.TAGE.MaxHist = 16, 2, 7, 7
	cfg.ITTAGE.NumTables, cfg.ITTAGE.TagBits, cfg.ITTAGE.LogTagged, cfg.ITTAGE.MinHist = 1, 1, 1, 1
	if _, err := New(cfg, w); err != nil {
		t.Errorf("boundary geometry rejected: %v", err)
	}
	cfg.TAGE.LogTagged, cfg.TAGE.TagBits = 16, 16
	if _, err := New(cfg, w); err != nil {
		t.Errorf("16-bit TAGE index and tag rejected: %v", err)
	}
}
