// Command perfbench is the repository benchmark. It runs one named
// workload — a Fig 14 sweep through sim.Runner — for a fixed time,
// checks the simulator's outputs, and prints every metric by name with
// its unit. With --trace 1 it instead runs the traced pass that times
// each layer's public functions (see README.md). Run it from the
// repository root through the wrapper, which builds it first:
//
//	bash perfbench/run.sh --workload fig14-exact --seed 1 --seconds 40 --trace 0
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}.
// The exit code is non-zero when any output check failed.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/sim"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

const (
	// traceWorkers bounds concurrent simulations in the traced pass: the
	// 2 CPUs of the machine the per-layer numbers were measured on. The
	// end-to-end pass runs one simulation at a time (see endToEnd).
	traceWorkers = 2
	// setupsPerRound is how many fresh runners each end-to-end round
	// sets up, so setup_s is a median over several even when few
	// rounds fit the budget. The round runs its specs on the last one.
	setupsPerRound = 3
	// outDir receives the traced pass's span trace and per-layer
	// numbers, relative to the directory the benchmark runs in.
	outDir = ".bench_build/perfbench-out"
)

// metricDef names one metric with its unit and direction.
type metricDef struct{ name, unit, better string }

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the benchmark's final output line.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: fig14-exact, suite-sampled or observed")
	seed := fs.Int64("seed", 1, "seed for the order specs are submitted in within each group")
	seconds := fs.Float64("seconds", 25, "measurement budget in seconds")
	trace := fs.Int("trace", 0, "1 runs the traced per-layer pass instead of the end-to-end one")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	d, err := workloadByName(*name)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	budget := time.Duration(*seconds * float64(time.Second))
	rng := rand.New(rand.NewSource(*seed))
	var rep report
	switch *trace {
	case 0:
		rep, err = endToEnd(d, budget, rng, stdout, stderr)
	case 1:
		rep, err = traced(d, traceWorkers, rng, outDir, fmt.Sprintf("%s-seed%d", d.name, *seed), stdout, stderr)
	default:
		err = fmt.Errorf("--trace must be 0 or 1, got %d", *trace)
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !rep.Correct {
		return 1
	}
	return 0
}

// e2eMetrics lists every end-to-end metric, printed with --trace 0.
// The first three are host measurements, the rest simulated results.
var e2eMetrics = []metricDef{
	{"sim_mips", "Minst/s", "higher"},
	{"setup_s", "s", "lower"},
	{"peak_rss_mb", "MiB", "lower"},
	{"gain_gap_pp", "pp", "lower"},
	{"losing_benchmarks", "count", "lower"},
	{"l1i_mpki_err_pct", "%", "lower"},
}

// endToEnd measures the workload in rounds until the budget is spent.
// Each round sets up fresh runners and runs every spec through
// sim.Runner.Run, one at a time in a seeded order after a collection,
// with GOMAXPROCS at 1. Every set-up and every spec is timed in
// reference seconds (see refClock), so that the host's changing speed
// does not read as a change in the simulator's. sim_mips is the covered
// volume over the sum of each spec's median time, setup_s the median
// set-up, and peak_rss_mb the high-water mark after round 0. Round 0
// runs in full; later rounds skip the specs that no longer fit the
// budget. Every result must pass checkSpec and reproduce its round-0
// digest exactly.
func endToEnd(d workloadDef, budget time.Duration, rng *rand.Rand, stdout, stderr io.Writer) (report, error) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	//skia:nondet-ok wall clock bounds the run's time budget; no simulated state depends on it
	start := time.Now()
	fits := func(next time.Duration) bool {
		//skia:nondet-ok wall clock bounds the run's time budget; no simulated state depends on it
		return time.Since(start)+next <= budget
	}
	clock := newRefClock()
	specs := d.specs()
	first := make([]sim.Result, len(specs))
	firstDigest := make([]string, len(specs))
	secs := make([][]float64, len(specs))
	// specWall and setupWall are round 0's wall times, to plan later
	// rounds against the budget.
	specWall := make([]time.Duration, len(specs))
	var setupWall time.Duration
	var setups []float64
	// rss is the memory high-water mark at the end of round 0, so it
	// covers the same work however many rounds fit the budget.
	var rss float64
	rep := report{Metrics: map[string]metric{}}
	rounds := 0
	for ; rounds == 0 || fits(setupWall+slices.Min(specWall)); rounds++ {
		//skia:nondet-ok wall clock plans the run's time budget; no simulated state depends on it
		t0 := time.Now()
		var r *sim.Runner
		for range setupsPerRound {
			r = d.runner(1)
			runtime.GC()
			var err error
			setups = append(setups, clock.time(func() { err = setUp(r, specs) }))
			if err != nil {
				return report{}, err
			}
		}
		if rounds == 0 {
			//skia:nondet-ok wall clock plans the run's time budget; no simulated state depends on it
			setupWall = time.Since(t0)
		}
		for _, i := range d.order(rng) {
			if rounds > 0 && !fits(specWall[i]) {
				continue
			}
			s := specs[i]
			runtime.GC()
			//skia:nondet-ok wall clock plans the run's time budget; no simulated state depends on it
			t0 := time.Now()
			var res sim.Result
			var err error
			secs[i] = append(secs[i], clock.time(func() { res, err = r.Run(s) }))
			problem := checkSpec(d, s, res)
			if err != nil {
				problem = err.Error()
			}
			dg, err := digest([]sim.Result{res})
			if err != nil {
				return report{}, err
			}
			if rounds == 0 {
				//skia:nondet-ok wall clock plans the run's time budget; no simulated state depends on it
				specWall[i] = time.Since(t0)
				first[i], firstDigest[i] = res, dg
			} else if problem == "" && dg != firstDigest[i] {
				problem = fmt.Sprintf("round %d digest %s != round 0 %s", rounds, dg, firstDigest[i])
			}
			rep.Attempted++
			if problem != "" {
				rep.Failed++
				fmt.Fprintf(stderr, "check failed: %s/%s: %s\n", s.Benchmark, s.Label, problem)
			}
		}
		if rounds == 0 {
			var err error
			if rss, err = peakRSSMiB(); err != nil {
				return report{}, err
			}
		}
	}
	var busy float64
	for i := range specs {
		busy += median(secs[i])
	}
	fmt.Fprintf(stderr, "%d rounds, %d runs, calibration %.3f ms\n", rounds, rep.Attempted, clock.last*1e3)
	fid, err := simulated(d, first)
	if err != nil {
		return report{}, err
	}
	dg, err := digest(first)
	if err != nil {
		return report{}, err
	}
	fmt.Fprintf(stdout, "digest %s %s\n", d.name, dg)
	printGains(stdout, d, fid)
	vals := map[string]float64{
		"sim_mips":          float64(d.covered()) / busy / 1e6,
		"setup_s":           median(setups),
		"peak_rss_mb":       rss,
		"gain_gap_pp":       fid.gainGapPP,
		"losing_benchmarks": float64(fid.losing),
		"l1i_mpki_err_pct":  fid.l1iMPKIErrPc,
	}
	for _, m := range e2eMetrics {
		rep.Metrics[m.name] = metric{vals[m.name], m.unit}
	}
	rep.Correct = rep.Failed == 0
	return rep, nil
}

// printGains prints the per-benchmark Fig 14 gains and geomeans.
func printGains(w io.Writer, d workloadDef, f fidelity) {
	for i, b := range d.benches {
		fmt.Fprintf(w, "gain %-16s head %+.2f%% tail %+.2f%% both %+.2f%%\n",
			b, f.gains["head"][i]*100, f.gains["tail"][i]*100, f.gains["both"][i]*100)
	}
	fmt.Fprintf(w, "gain %-16s head %+.2f%% tail %+.2f%% both %+.2f%% (paper +3.68%% +4.39%% +5.64%%)\n",
		"GEOMEAN", f.geomean["head"]*100, f.geomean["tail"]*100, f.geomean["both"]*100)
}

// median returns the middle value (mean of the two middle values for an
// even count).
func median(xs []float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// cpuTime returns the CPU time the process has used so far, user plus
// system, over all its threads.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(fmt.Sprintf("getrusage: %v", err))
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMiB reads the process's resident-set high-water mark.
func peakRSSMiB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("peak RSS: %w", err)
	}
	for _, l := range strings.Split(string(b), "\n") {
		if f := strings.Fields(l); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			if err != nil {
				return 0, fmt.Errorf("peak RSS: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("peak RSS: no VmHWM in /proc/self/status")
}
