package experiments

import (
	"fmt"
	"os"
	"testing"

	"repro/internal/cpu"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/workload"
)

func TestCalibrateAll(t *testing.T) {
	if os.Getenv("SKIA_CALIBRATE") == "" {
		t.Skip("set SKIA_CALIBRATE=1 to run the calibration sweep")
	}
	o := Options{Warmup: 400_000, Measure: 1_200_000}
	r := o.runner()
	for _, b := range workload.SuiteNames() {
		w, err := r.Workload(b)
		if err != nil {
			t.Fatal(err)
		}
		res, err := r.Run(sim.RunSpec{Benchmark: b, Config: cpu.DefaultConfig(),
			Warmup: o.Warmup, Measure: o.Measure, Label: "baseline"})
		if err != nil {
			t.Fatal(err)
		}
		fe := res.FE
		tot := float64(fe.BTBMissTotal())
		pc := func(v uint64) float64 {
			if tot == 0 {
				return 0
			}
			return float64(v) / tot * 100
		}
		fmt.Printf("%-18s static=%6d missMPKI=%5.2f l1i=%5.1f(tgt %4.1f) hitFrac=%.2f condMPKI=%4.1f mix[c%2.0f u%2.0f ca%2.0f r%2.0f i%2.0f] ipc=%.2f\n",
			b, w.StaticBranchCount(), res.BTBMissMPKI, res.L1IMPKI, w.Profile.L1IMPKITarget,
			res.BTBMissL1IHitFrac, stats.MPKI(fe.CondMispredicts, res.Instructions),
			pc(fe.BTBMissCond), pc(fe.BTBMissUncond), pc(fe.BTBMissCall), pc(fe.BTBMissReturn), pc(fe.BTBMissIndirect),
			res.IPC)
	}
}
