package sched

import (
	"math"
	"reflect"
	"testing"

	"rap/internal/chaos"
	"rap/internal/gpusim"
	"rap/internal/preproc"
)

// TestWarmupSentinel covers the Warmup:0 regression: the zero value
// means "default of 2", and NoWarmup requests an actual zero-warmup
// window measured from t=0.
func TestWarmupSentinel(t *testing.T) {
	const n = 2
	cfg, pl, cm := testSetup(t, n, 4096)
	p := preproc.MustStandardPlan(0, nil)
	work := buildWork(t, cm, splitGraphs(p, n), 4096)

	run := func(warmup int) *PipelineStats {
		stats, err := BuildAndRun(gpusim.ClusterConfig{NumGPUs: n}, cfg, pl, work, PipelineOptions{
			Iterations: 4,
			Warmup:     warmup,
		})
		if err != nil {
			t.Fatal(err)
		}
		return stats
	}

	def := run(0)
	wantDef := (def.IterEnds[3] - def.IterEnds[1]) / 2
	if math.Abs(def.SteadyIterLatency-wantDef) > 1e-9 {
		t.Fatalf("default warmup: steady latency %f, want 2-warmup window %f", def.SteadyIterLatency, wantDef)
	}

	none := run(NoWarmup)
	wantNone := none.IterEnds[3] / 4
	if math.Abs(none.SteadyIterLatency-wantNone) > 1e-9 {
		t.Fatalf("NoWarmup: steady latency %f, want full-run window %f", none.SteadyIterLatency, wantNone)
	}

	// Any negative value behaves like the sentinel.
	minus := run(-3)
	if math.Abs(minus.SteadyIterLatency-none.SteadyIterLatency) > 1e-9 {
		t.Fatalf("Warmup -3 diverged from NoWarmup: %f vs %f", minus.SteadyIterLatency, none.SteadyIterLatency)
	}
}

// TestPipelineChaosDeterministic runs the full pipeline builder under a
// seeded perturbation plan twice: results must be deeply equal, strictly
// slower than the unperturbed run, and a nil plan must stay bit-identical
// to no plan at all.
func TestPipelineChaosDeterministic(t *testing.T) {
	const n = 2
	cfg, pl, cm := testSetup(t, n, 4096)
	p := preproc.MustStandardPlan(0, nil)
	work := buildWork(t, cm, splitGraphs(p, n), 4096)

	run := func(cp *chaos.Plan) *PipelineStats {
		stats, err := BuildAndRun(gpusim.ClusterConfig{NumGPUs: n}, cfg, pl, work, PipelineOptions{
			Iterations: 3,
			Chaos:      cp,
		})
		if err != nil {
			t.Fatal(err)
		}
		return stats
	}

	base := run(nil)
	baseHorizon := base.Result.Makespan

	cp, err := chaos.NewPlan(42, chaos.Scenario{NumGPUs: n, HorizonUs: baseHorizon, Severity: 0.7})
	if err != nil {
		t.Fatal(err)
	}
	a, b := run(cp), run(cp)
	if !reflect.DeepEqual(a.Result, b.Result) {
		t.Fatal("chaos pipeline runs with identical plan diverged")
	}
	if a.Result.Makespan <= baseHorizon {
		t.Fatalf("severity-0.7 plan did not stretch the pipeline: %f <= %f", a.Result.Makespan, baseHorizon)
	}

	again := run(nil)
	if !reflect.DeepEqual(base.Result, again.Result) {
		t.Fatal("nil chaos plan perturbed the pipeline")
	}
}
