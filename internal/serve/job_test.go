package serve

import (
	"reflect"
	"testing"

	"repro/internal/experiments"
	"repro/internal/sim"
)

// TestJobSpecSampleFieldImpliesSampling: a spec with exactly one meta
// sample_* field set runs sampled with that value in its plan, and
// counts as asking for a schema-v5 sampling feature; a spec with none
// runs exact.
func TestJobSpecSampleFieldImpliesSampling(t *testing.T) {
	for _, tc := range []struct {
		name string
		meta experiments.RunMeta
		want sim.SamplePlan
	}{
		{"sample_intervals", experiments.RunMeta{SampleIntervals: 7}, sim.SamplePlan{Intervals: 7}},
		{"sample_interval_instructions", experiments.RunMeta{SampleIntervalInstructions: 5000}, sim.SamplePlan{IntervalInsts: 5000}},
		{"sample_micro_warmup_instructions", experiments.RunMeta{SampleMicroWarmupInstructions: 300}, sim.SamplePlan{MicroWarmup: 300}},
		{"sample_warm_window_instructions", experiments.RunMeta{SampleWarmWindowInstructions: 90000}, sim.SamplePlan{WarmWindow: 90000}},
		{"sample_shards", experiments.RunMeta{SampleShards: 3}, sim.SamplePlan{Shards: 3}},
	} {
		s := JobSpec{Experiment: "fig14", Meta: tc.meta}
		got := s.options(1).Sample
		if got == nil || !reflect.DeepEqual(*got, tc.want) {
			t.Errorf("%s: options().Sample = %+v, want %+v", tc.name, got, tc.want)
		}
		if !s.sampling() {
			t.Errorf("%s: sampling() = false, want true", tc.name)
		}
	}
	exact := JobSpec{Experiment: "fig14"}
	if got := exact.options(1).Sample; got != nil {
		t.Errorf("no sample field: options().Sample = %+v, want nil", got)
	}
	if exact.sampling() {
		t.Error("no sample field: sampling() = true, want false")
	}
}
