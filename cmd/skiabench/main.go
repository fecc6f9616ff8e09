// Command skiabench records the simulator's performance trajectory:
// it runs the tier-1 hot-loop benchmarks with allocation reporting,
// measures end-to-end experiment throughput, and emits one versioned
// BENCH_*.json envelope per run so future changes diff performance the
// same way cmd/skiacmp diffs correctness.
//
// Usage:
//
//	skiabench                       # print the table
//	skiabench -out BENCH_8.json     # also write the JSON envelope
//	skiabench -baseline BENCH_8.json -max-regress 0.25
//	skiabench -bench frontend       # run a subset by substring
//
// With -baseline the run gates like a regression test: any benchmark
// whose ns/op exceeds the baseline's by more than -max-regress fails
// the run (exit 1). Allocation counts gate under the same threshold,
// but only for benchmarks whose baseline allocates enough (≥100
// allocs/op) for the ratio to be meaningful. The envelope schema is
// documented in EXPERIMENTS.md ("Benchmark trajectory").
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/attrib"
	"repro/internal/compare"
	"repro/internal/cpu"
	"repro/internal/experiments"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/workload"
)

// SchemaVersion identifies the BENCH_*.json envelope format.
const SchemaVersion = 1

// Entry is one benchmark's measured cost.
type Entry struct {
	Name string `json:"name"`
	// Iterations is testing.B's chosen N (1 for experiment entries).
	Iterations int `json:"iterations"`
	// NsPerOp is wall time per operation. For hot-loop benchmarks an
	// operation is 1000 simulated instructions, for fast-forward entries
	// one 2M-instruction skip, and for experiment entries the whole
	// experiment.
	NsPerOp float64 `json:"ns_per_op"`
	// AllocsPerOp and BytesPerOp come from testing.B's allocation
	// counters (absent for experiment entries).
	AllocsPerOp int64 `json:"allocs_per_op"`
	BytesPerOp  int64 `json:"bytes_per_op"`
	// Metrics carries benchmark-specific extras: "minsts_per_s" for
	// hot loops and fast-forwards (simulated or skipped Minstructions
	// per wall second), "sim_mips"
	// for experiment entries (the runner's aggregate throughput).
	Metrics map[string]float64 `json:"metrics,omitempty"`
}

// Envelope is the BENCH_*.json file layout.
type Envelope struct {
	SchemaVersion int    `json:"schema_version"`
	GeneratedAt   string `json:"generated_at"`
	GitDescribe   string `json:"git_describe,omitempty"`
	GoVersion     string `json:"go_version"`
	GOOS          string `json:"goos"`
	GOARCH        string `json:"goarch"`
	NumCPU        int    `json:"num_cpu"`
	// NonTestLines is the module's non-test Go line count (see
	// countNonTestLines); absent when the module root was not found.
	NonTestLines int     `json:"non_test_lines,omitempty"`
	Entries      []Entry `json:"entries"`
}

// decodeEnvelope parses one BENCH_*.json envelope, rejecting schema
// versions newer than this build.
func decodeEnvelope(data []byte) (*Envelope, error) {
	var env Envelope
	if err := json.Unmarshal(data, &env); err != nil {
		return nil, err
	}
	if env.SchemaVersion > SchemaVersion {
		return nil, fmt.Errorf("envelope schema v%d is newer than this build (v%d)",
			env.SchemaVersion, SchemaVersion)
	}
	return &env, nil
}

// moduleRoot walks up from the working directory to the nearest
// directory holding a go.mod.
func moduleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod above the working directory")
		}
		dir = parent
	}
}

// countNonTestLines counts the lines of every .go file under root,
// skipping _test.go files, testdata directories and nested modules
// (directories with their own go.mod, such as perfbench).
func countNonTestLines(root string) (int, error) {
	lines := 0
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path == root {
				return nil
			}
			if d.Name() == "testdata" {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil {
				return filepath.SkipDir
			}
			return nil
		}
		name := d.Name()
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		lines += strings.Count(string(data), "\n")
		return nil
	})
	return lines, err
}

// cycleCore builds a core on voter warmed by warm instructions of
// detail. The hot-loop benchmarks warm 100k, mirroring bench_test.go's
// BenchmarkFrontEndCycle setup so the two report comparable numbers.
func cycleCore(cfg cpu.Config, warm uint64) (*cpu.Core, error) {
	prof, err := workload.ByName("voter")
	if err != nil {
		return nil, err
	}
	w, err := workload.Generate(prof)
	if err != nil {
		return nil, err
	}
	c, err := cpu.New(cfg, w)
	if err != nil {
		return nil, err
	}
	c.Run(warm)
	c.ResetStats()
	return c, nil
}

// benchCycle measures the simulated front-end cycle in 1000-instruction
// slices (the same loop as bench_test.go's BenchmarkFrontEndCycle),
// with a miss-attribution engine attached when attributed is set
// (BenchmarkFrontEndCycle_WithAttribution).
func benchCycle(cfg cpu.Config, attributed bool) (Entry, error) {
	mk := func() (*cpu.Core, error) {
		c, err := cycleCore(cfg, 100_000)
		if err == nil && attributed {
			c.AttachAttribution(attrib.NewEngine())
		}
		return c, err
	}
	var retired uint64
	r := testing.Benchmark(func(b *testing.B) {
		// The core is rebuilt per invocation: testing.Benchmark probes
		// the function at growing b.N, and retired instructions must
		// count only the final timed run.
		retired = 0
		b.StopTimer()
		c, err := mk()
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if c.Run(1000) == 0 {
				b.StopTimer()
				nc, err := mk()
				if err != nil {
					b.Fatal(err)
				}
				retired += c.Retired()
				c = nc
				b.StartTimer()
			}
		}
		retired += c.Retired()
	})
	return loopEntry(r, retired), nil
}

// loopEntry records a testing.B result whose final timed run covered
// insts simulated (or skipped) instructions.
func loopEntry(r testing.BenchmarkResult, insts uint64) Entry {
	e := Entry{
		Iterations:  r.N,
		NsPerOp:     float64(r.NsPerOp()),
		AllocsPerOp: r.AllocsPerOp(),
		BytesPerOp:  r.AllocedBytesPerOp(),
	}
	if r.T > 0 {
		e.Metrics = map[string]float64{
			"minsts_per_s": float64(insts) / r.T.Seconds() / 1e6,
		}
	}
	return e
}

// benchFastForward measures one skip primitive of sampled simulation,
// Core.FastForward (cold) or Core.FastForwardWarm (warm), over 2M voter
// instructions from a Skia core warmed by 200k instructions of detail.
// Each operation skips from a fresh clone of that core.
func benchFastForward(warm bool) (Entry, error) {
	const skip = 2_000_000
	base, err := cycleCore(cpu.SkiaConfig(), 200_000)
	if err != nil {
		return Entry{}, err
	}
	var skipped uint64
	r := testing.Benchmark(func(b *testing.B) {
		skipped = 0 // count only the final timed run
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			c := base.Clone()
			b.StartTimer()
			if warm {
				skipped += c.FastForwardWarm(skip)
			} else {
				skipped += c.FastForward(skip)
			}
		}
	})
	return loopEntry(r, skipped), nil
}

// benchExperiment runs one experiment harness once on a reduced window
// and records its wall time plus the runner's simulated-MIPS
// throughput (Meta.Sim.InstructionsPerSec).
func benchExperiment(f func(experiments.Options) (*experiments.Report, error)) (Entry, error) {
	o := experiments.Options{
		Warmup:     100_000,
		Measure:    300_000,
		Benchmarks: []string{"voter", "noop"},
	}
	start := time.Now()
	rep, err := f(o)
	if err != nil {
		return Entry{}, err
	}
	wall := time.Since(start)
	e := Entry{
		Iterations: 1,
		NsPerOp:    float64(wall.Nanoseconds()),
		Metrics:    map[string]float64{},
	}
	if rep.Meta.Sim != nil {
		e.Metrics["sim_mips"] = rep.Meta.Sim.InstructionsPerSec / 1e6
	}
	return e, nil
}

// benchFig14Sharded measures the accelerated sweep path end to end:
// one exact fig14 reference pass populates warmup checkpoints (and
// SampleEcho rows), then a sampled serial pass and a sampled sharded
// pass rerun the same sweep reusing those checkpoints. It reports the
// combined checkpoint+sampling+sharding speedup over the exact pass
// and the sharding parallel efficiency, and hard-fails unless (a)
// every sampled metric's confidence interval contains the exact value
// (skiacmp -sample-ci) and (b) the sharded pass's sampling summaries
// are DeepEqual to the serial pass's.
func benchFig14Sharded() (Entry, error) {
	const shards = 4
	cache := sim.NewCheckpointCache()
	base := experiments.Options{
		Warmup:      16_000_000,
		Measure:     4_000_000,
		Benchmarks:  []string{"voter"},
		Checkpoint:  true,
		Checkpoints: cache,
	}
	plan := sim.SamplePlan{Intervals: 5, IntervalInsts: 60_000, MicroWarmup: 30_000}

	run := func(o experiments.Options) (*experiments.Report, time.Duration, error) {
		start := time.Now()
		rep, err := experiments.Fig14(o)
		return rep, time.Since(start), err
	}

	exactOpt := base
	exactOpt.SampleEcho = true
	exact, wallExact, err := run(exactOpt)
	if err != nil {
		return Entry{}, err
	}

	serialOpt := base
	p := plan
	serialOpt.Sample = &p
	serial, wallSerial, err := run(serialOpt)
	if err != nil {
		return Entry{}, err
	}

	shardedOpt := base
	ps := plan
	ps.Shards = shards
	shardedOpt.Sample = &ps
	sharded, wallSharded, err := run(shardedOpt)
	if err != nil {
		return Entry{}, err
	}

	// Gate 1: sharding must not change results at all.
	if !reflect.DeepEqual(serial.Sampling, sharded.Sampling) {
		return Entry{}, fmt.Errorf("sharded sampling summaries differ from serial (shard-count invariance broken)")
	}

	// Gate 2: every sampled metric's CI must contain the exact value.
	if res := compare.Diff(map[string]*experiments.Report{"fig14": exact},
		map[string]*experiments.Report{"fig14": sharded}, compare.Options{SampleCI: true}); res.Failed() {
		return Entry{}, fmt.Errorf("sampled metrics outside exact CI:\n%s", res)
	}

	e := Entry{
		Iterations: 1,
		NsPerOp:    float64(wallSharded.Nanoseconds()),
		Metrics: map[string]float64{
			"speedup_vs_exact":    wallExact.Seconds() / wallSharded.Seconds(),
			"parallel_efficiency": wallSerial.Seconds() / (wallSharded.Seconds() * math.Min(shards, float64(runtime.NumCPU()))),
			"exact_wall_s":        wallExact.Seconds(),
			"serial_wall_s":       wallSerial.Seconds(),
		},
	}
	if sharded.Meta.Sim != nil {
		e.Metrics["sim_mips"] = sharded.Meta.Sim.InstructionsPerSec / 1e6
	}
	return e, nil
}

// registry lists every tracked benchmark in report order.
// regEntry is one registered benchmark. maxAllocs, when >= 0, is an
// absolute allocs/op budget enforced on every run (no baseline file
// needed): the steady-state front-end cycle path is annotated
// //skia:noalloc and must stay allocation-free, so its budget is the
// occasional map-growth rehash, not a percentage of a prior run.
type regEntry struct {
	name      string
	run       func() (Entry, error)
	maxAllocs int64
}

func registry() []regEntry {
	noCache := cpu.SkiaConfig()
	noCache.Frontend.NoDecodeCache = true
	return []regEntry{
		{"frontend-cycle", func() (Entry, error) { return benchCycle(cpu.SkiaConfig(), false) }, 1},
		{"frontend-cycle-attrib", func() (Entry, error) { return benchCycle(cpu.SkiaConfig(), true) }, 1},
		{"frontend-cycle-nocache", func() (Entry, error) { return benchCycle(noCache, false) }, -1},
		{"frontend-cycle-baseline", func() (Entry, error) { return benchCycle(cpu.DefaultConfig(), false) }, 1},
		{"fastforward-cold", func() (Entry, error) { return benchFastForward(false) }, -1},
		{"fastforward-warm", func() (Entry, error) { return benchFastForward(true) }, -1},
		{"fig14-reduced", func() (Entry, error) { return benchExperiment(experiments.Fig14) }, -1},
		{"fig14-sharded", benchFig14Sharded, -1},
	}
}

func gitDescribe() string {
	out, err := exec.Command("git", "describe", "--always", "--dirty", "--tags").Output()
	if err != nil {
		return ""
	}
	return strings.TrimSpace(string(out))
}

// gate compares a run against a baseline envelope; it returns one
// message per regression beyond maxRegress, or a failure when nothing
// was compared: the baseline has no entries, or no run entry names one.
func gate(base, head *Envelope, maxRegress float64) []string {
	if len(base.Entries) == 0 {
		return []string{"baseline has no entries: nothing to gate against"}
	}
	byName := make(map[string]Entry, len(base.Entries))
	for _, e := range base.Entries {
		byName[e.Name] = e
	}
	var fails []string
	gated := 0
	for _, e := range head.Entries {
		b, ok := byName[e.Name]
		if !ok {
			continue // new benchmark: nothing to regress against
		}
		gated++
		if b.NsPerOp > 0 && e.NsPerOp > b.NsPerOp*(1+maxRegress) {
			fails = append(fails, fmt.Sprintf("%s: ns/op %.0f -> %.0f (+%.1f%%, limit +%.0f%%)",
				e.Name, b.NsPerOp, e.NsPerOp, (e.NsPerOp/b.NsPerOp-1)*100, maxRegress*100))
		}
		// Allocation gate: only when the baseline allocates enough for
		// the ratio to be stable (tiny counts flap on map growth).
		if b.AllocsPerOp >= 100 && float64(e.AllocsPerOp) > float64(b.AllocsPerOp)*(1+maxRegress) {
			fails = append(fails, fmt.Sprintf("%s: allocs/op %d -> %d (+%.1f%%, limit +%.0f%%)",
				e.Name, b.AllocsPerOp, e.AllocsPerOp,
				(float64(e.AllocsPerOp)/float64(b.AllocsPerOp)-1)*100, maxRegress*100))
		}
	}
	if gated == 0 {
		fails = append(fails, "no benchmark run names a baseline entry: nothing was gated")
	}
	return fails
}

func main() {
	var (
		out        = flag.String("out", "", "write the JSON envelope to this file")
		baseline   = flag.String("baseline", "", "gate against this BENCH_*.json baseline")
		maxRegress = flag.Float64("max-regress", 0.25, "maximum tolerated ns/op (and allocs/op) regression vs -baseline")
		match      = flag.String("bench", "", "only run benchmarks whose name contains this substring")
	)
	var prof metrics.Profiler
	prof.RegisterFlags(flag.CommandLine)
	flag.Parse()
	var base *Envelope
	if *baseline != "" {
		data, err := os.ReadFile(*baseline)
		if err == nil {
			base, err = decodeEnvelope(data)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "skiabench: baseline: %v\n", err)
			os.Exit(2)
		}
	}
	stopProf, err := prof.Start()
	if err != nil {
		fmt.Fprintf(os.Stderr, "skiabench: %v\n", err)
		os.Exit(2)
	}

	env := &Envelope{
		SchemaVersion: SchemaVersion,
		GeneratedAt:   time.Now().UTC().Format(time.RFC3339),
		GitDescribe:   gitDescribe(),
		GoVersion:     runtime.Version(),
		GOOS:          runtime.GOOS,
		GOARCH:        runtime.GOARCH,
		NumCPU:        runtime.NumCPU(),
	}
	if root, err := moduleRoot(); err != nil {
		fmt.Fprintf(os.Stderr, "skiabench: line count: %v\n", err)
	} else if env.NonTestLines, err = countNonTestLines(root); err != nil {
		fmt.Fprintf(os.Stderr, "skiabench: line count: %v\n", err)
	}
	var budgetFails []string
	for _, reg := range registry() {
		if *match != "" && !strings.Contains(reg.name, *match) {
			continue
		}
		fmt.Fprintf(os.Stderr, "running %s...\n", reg.name)
		e, err := reg.run()
		if err != nil {
			fmt.Fprintf(os.Stderr, "skiabench: %s: %v\n", reg.name, err)
			os.Exit(2)
		}
		e.Name = reg.name
		if reg.maxAllocs >= 0 && e.AllocsPerOp > reg.maxAllocs {
			budgetFails = append(budgetFails, fmt.Sprintf("%s: %d allocs/op exceeds the absolute budget of %d",
				reg.name, e.AllocsPerOp, reg.maxAllocs))
		}
		env.Entries = append(env.Entries, e)
	}
	if err := stopProf(); err != nil {
		fmt.Fprintf(os.Stderr, "skiabench: %v\n", err)
	}

	fmt.Printf("%-26s %12s %12s %12s %10s\n", "benchmark", "ns/op", "B/op", "allocs/op", "extra")
	for _, e := range env.Entries {
		extra := ""
		if v, ok := e.Metrics["minsts_per_s"]; ok {
			extra = fmt.Sprintf("%.2f Mi/s", v)
		} else if v, ok := e.Metrics["speedup_vs_exact"]; ok {
			extra = fmt.Sprintf("%.1fx exact", v)
		} else if v, ok := e.Metrics["sim_mips"]; ok {
			extra = fmt.Sprintf("%.2f MIPS", v)
		}
		fmt.Printf("%-26s %12.0f %12d %12d %10s\n", e.Name, e.NsPerOp, e.BytesPerOp, e.AllocsPerOp, extra)
	}
	if env.NonTestLines > 0 {
		fmt.Printf("non-test Go lines: %d\n", env.NonTestLines)
	}

	if *out != "" {
		data, err := json.MarshalIndent(env, "", "  ")
		if err != nil {
			fmt.Fprintf(os.Stderr, "skiabench: %v\n", err)
			os.Exit(2)
		}
		if err := os.WriteFile(*out, append(data, '\n'), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "skiabench: %v\n", err)
			os.Exit(2)
		}
		fmt.Fprintf(os.Stderr, "wrote %s\n", *out)
	}

	if base != nil {
		fails := gate(base, env, *maxRegress)
		if len(fails) > 0 {
			for _, f := range fails {
				fmt.Fprintf(os.Stderr, "FAIL %s\n", f)
			}
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "ok: within %.0f%% of %s\n", *maxRegress*100, *baseline)
	}

	if len(budgetFails) > 0 {
		for _, f := range budgetFails {
			fmt.Fprintf(os.Stderr, "BUDGET %s\n", f)
		}
		os.Exit(1)
	}
}
