package rap

import (
	"fmt"
	"math"
	"reflect"
	"testing"
	"time"

	"rap/internal/data"
	"rap/internal/gpusim"
	"rap/internal/preproc"
	"rap/internal/sched"
)

func TestWithListLen(t *testing.T) {
	w := workload(t, Terabyte, 1, 4096)
	shifted := w.WithListLen(9)
	if shifted.Plan.AvgListLen != 9 || shifted.Gen.AvgListLen != 9 || shifted.Model.AvgPooling != 9 {
		t.Fatalf("shift not applied: %+v", shifted.Plan.AvgListLen)
	}
	// Original untouched.
	if w.Plan.AvgListLen != 3 {
		t.Fatal("original workload mutated")
	}
	// Graphs shared (no deep copy needed).
	if &w.Plan.Graphs[0] == &shifted.Plan.Graphs[0] {
		_ = w // same backing array is fine; just ensure both validate
	}
	if err := shifted.Validate(); err != nil {
		t.Fatal(err)
	}
	if w.WithListLen(-3).Plan.AvgListLen != 1 {
		t.Fatal("non-positive list length not clamped")
	}
}

func TestAdaptToShift(t *testing.T) {
	w := workload(t, Terabyte, 1, 4096)
	f := New(w, gpusim.ClusterConfig{NumGPUs: 2})
	before, err := f.BuildPlan(BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// Triple the multi-hot volume: the preprocessing load grows, so the
	// regenerated plan must schedule more kernel time.
	after, err := f.AdaptToShift(9, BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	workOf := func(p *ExecPlan) float64 {
		total := 0.0
		for g := range p.Schedules {
			for _, k := range p.Schedules[g].AllKernels() {
				total += k.SaturatedWork()
			}
		}
		return total
	}
	if workOf(after) <= workOf(before)*1.5 {
		t.Fatalf("regenerated plan did not absorb the shift: %f vs %f", workOf(after), workOf(before))
	}
	// The regenerated plan still executes.
	stats, err := f.Execute(after, 6)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Throughput <= 0 {
		t.Fatal("no throughput after regeneration")
	}
}

// TestAdaptToShiftNonFinite: a NaN or infinite list length used to
// reach the capacity search, whose bisection never converged, so
// BuildPlan hung. It must return an error promptly and leave the
// workload unshifted.
func TestAdaptToShiftNonFinite(t *testing.T) {
	w := workload(t, Terabyte, 1, 4096)
	f := New(w, gpusim.ClusterConfig{NumGPUs: 2})
	for _, l := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		done := make(chan error, 1)
		go func() {
			_, err := f.AdaptToShift(l, BuildOptions{})
			done <- err
		}()
		select {
		case err := <-done:
			if err == nil {
				t.Fatalf("AdaptToShift(%g) accepted a non-finite list length", l)
			}
		case <-time.After(30 * time.Second):
			t.Fatalf("AdaptToShift(%g) did not return", l)
		}
		if f.W != w {
			t.Fatalf("AdaptToShift(%g) shifted the workload despite the error", l)
		}
	}
}

// overloadedWorkload builds a plan-1 workload with enough extra NGram
// work that Algorithm 1 cannot hide everything (forcing overflow).
func overloadedWorkload(t *testing.T) *Workload {
	t.Helper()
	w := workload(t, Terabyte, 1, 4096)
	for i := 0; i < 320; i++ {
		gi := w.Plan.NumDense + (i % w.Plan.NumSparse)
		g := w.Plan.Graphs[gi]
		base := g.Ops[0].Output()
		ng := preproc.NewNGram(
			fmt.Sprintf("%s/xng%d", g.Name, i),
			[]string{base},
			fmt.Sprintf("%s.xng%d", base, i),
			3, 1<<20)
		g.Ops = append(g.Ops, ng)
		g.InvalidateDeps()
	}
	if err := w.Plan.Validate(); err != nil {
		t.Fatal(err)
	}
	return w
}

func TestMakeHybrid(t *testing.T) {
	w := overloadedWorkload(t)
	// A wide elastic CPU tier (the GoldMiner-style setup the paper's
	// hybrid mode composes with).
	f := New(w, gpusim.ClusterConfig{NumGPUs: 2, HostCores: 4096})
	pure, err := f.BuildPlan(BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	overflowed := false
	for g := range pure.Schedules {
		if len(pure.Schedules[g].Overflow) > 0 {
			overflowed = true
		}
	}
	if !overflowed {
		t.Fatal("overloaded workload did not overflow — test premise broken")
	}
	pureStats, err := f.Execute(pure, 8)
	if err != nil {
		t.Fatal(err)
	}

	hybrid, spilled, err := MakeHybrid(pure, 1024)
	if err != nil {
		t.Fatal(err)
	}
	if spilled == 0 {
		t.Fatal("nothing spilled")
	}
	for g := range hybrid.Schedules {
		if len(hybrid.Schedules[g].Overflow) != 0 || len(hybrid.Work[g].Schedule.Overflow) != 0 {
			t.Fatal("overflow not cleared")
		}
		if hybrid.Work[g].CPUPreprocUs <= 0 && spilledOnGPU(pure, g) {
			t.Fatalf("gpu %d spilled but no CPU work assigned", g)
		}
	}
	hybridStats, err := f.Execute(hybrid, 8)
	if err != nil {
		t.Fatal(err)
	}
	// The hybrid mode trades exposed GPU tail latency for concurrent CPU
	// work: with a large host pool it must not be slower, and should
	// recover a good share of the exposed time (§10: "minimize CPU
	// resource requirements while maintaining high end-to-end training
	// efficiency").
	if hybridStats.Throughput < pureStats.Throughput {
		t.Fatalf("hybrid slower than pure GPU: %.0f vs %.0f", hybridStats.Throughput, pureStats.Throughput)
	}
	if hybridStats.Throughput < pureStats.Throughput*1.03 {
		t.Fatalf("hybrid recovered too little: %.0f vs %.0f", hybridStats.Throughput, pureStats.Throughput)
	}
}

func spilledOnGPU(p *ExecPlan, g int) bool {
	return len(p.Schedules[g].Overflow) > 0
}

// TestMakeHybridLeavesPlanCacheIntact: MakeHybrid must not modify the
// plan it is given. BuildPlan hands out its cached plan, so an in-place
// spill made every later BuildPlan of the same request return the
// hybrid plan, with its overflow gone.
func TestMakeHybridLeavesPlanCacheIntact(t *testing.T) {
	f := New(overloadedWorkload(t), gpusim.ClusterConfig{NumGPUs: 2, HostCores: 4096})
	pure, err := f.BuildPlan(BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	overflow := make([]int, len(pure.Schedules))
	total := 0
	for g, s := range pure.Schedules {
		overflow[g] = len(s.Overflow)
		total += overflow[g]
	}
	if total == 0 {
		t.Fatal("overloaded workload did not overflow — test premise broken")
	}
	work := append([]sched.GPUWork(nil), pure.Work...)
	exposed := append([]float64(nil), pure.PredictedExposedUs...)

	hybrid, _, err := MakeHybrid(pure, 64)
	if err != nil {
		t.Fatal(err)
	}
	if hybrid == pure {
		t.Fatal("MakeHybrid returned its input instead of a copy")
	}
	again, err := f.BuildPlan(BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for g, s := range again.Schedules {
		if len(s.Overflow) != overflow[g] || len(again.Work[g].Schedule.Overflow) != overflow[g] {
			t.Fatalf("gpu %d: cached plan has %d overflow kernels after MakeHybrid, want %d",
				g, len(s.Overflow), overflow[g])
		}
	}
	if !reflect.DeepEqual(again.Work, work) || !reflect.DeepEqual(again.PredictedExposedUs, exposed) {
		t.Fatal("MakeHybrid modified the cached plan's work or predicted exposure")
	}
}

func TestMakeHybridNil(t *testing.T) {
	if _, _, err := MakeHybrid(nil, 8); err == nil {
		t.Fatal("nil plan accepted")
	}
}

func TestMakeHybridNoOverflowNoop(t *testing.T) {
	w := workload(t, Terabyte, 0, 4096)
	f := New(w, gpusim.ClusterConfig{NumGPUs: 4})
	built, err := f.BuildPlan(BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// Everything hidden: a copy of the plan with the overflow dropped,
	// leaving the framework's cached plan as built.
	p := *built
	p.Schedules = make([]*sched.Schedule, len(built.Schedules))
	for g, s := range built.Schedules {
		hidden := *s
		hidden.Overflow = nil
		p.Schedules[g] = &hidden
	}
	hybrid, spilled, err := MakeHybrid(&p, 64)
	if err != nil {
		t.Fatal(err)
	}
	if spilled != 0 {
		t.Fatalf("nothing overflowed, yet spilled %d", spilled)
	}
	for g := range hybrid.Work {
		if hybrid.Work[g].CPUPreprocUs != 0 {
			t.Fatal("CPU work added without overflow")
		}
	}
}

func TestRunFunctionalFromDataset(t *testing.T) {
	w := workload(t, Kaggle, 0, 64).ShrinkForFunctional()
	dir := t.TempDir()
	if err := data.WriteDataset(dir, w.Gen, 4, 64); err != nil {
		t.Fatal(err)
	}
	ds, err := data.OpenDataset(dir)
	if err != nil {
		t.Fatal(err)
	}
	it := ds.Batches()
	it.Loop = true
	defer it.Close()
	res, err := RunFunctionalFrom(w, 2, it, 10, 3, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Losses) != 10 || !res.InSync {
		t.Fatalf("dataset-fed training broken: %d losses, sync=%v", len(res.Losses), res.InSync)
	}
	// Without Loop, the 4-batch dataset runs dry.
	it2 := ds.Batches()
	defer it2.Close()
	if _, err := RunFunctionalFrom(w, 2, it2, 10, 3, 0.05); err == nil {
		t.Fatal("exhausted dataset not reported")
	}
}
