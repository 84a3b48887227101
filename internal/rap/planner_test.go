package rap

import (
	"errors"
	"reflect"
	"testing"

	"rap/internal/costmodel"
	"rap/internal/dlrm"
	"rap/internal/fusion"
	"rap/internal/gpusim"
	"rap/internal/sched"
)

// plansEqual compares the planner outputs of two ExecPlans (the
// workload/cluster/opts headers are inputs, and Framework pointers
// differ between frameworks).
func plansEqual(a, b *ExecPlan) bool {
	return reflect.DeepEqual(a.Placement, b.Placement) &&
		reflect.DeepEqual(a.Mapping, b.Mapping) &&
		reflect.DeepEqual(a.Capacities, b.Capacities) &&
		reflect.DeepEqual(a.Fusions, b.Fusions) &&
		reflect.DeepEqual(a.Schedules, b.Schedules) &&
		reflect.DeepEqual(a.Work, b.Work) &&
		reflect.DeepEqual(a.PredictedExposedUs, b.PredictedExposedUs)
}

// referencePlan builds f's plan for opts the plain way: capacities
// probed GPU by GPU with no probe cache, and each GPU's fusion solved
// afresh with no solve cache, one GPU after another. Mapping and
// scheduling read no cache, so they run as in BuildPlan.
func referencePlan(t *testing.T, f *Framework, opts BuildOptions) *ExecPlan {
	t.Helper()
	if opts.Strategy == "" {
		opts.Strategy = MapRAP
	}
	n := f.Cluster.NumGPUs
	pl := dlrm.PlaceTables(f.W.Model.TableSizes, n)
	caps := make([][]costmodel.StageCapacity, n)
	capTotals := make([]float64, n)
	for g := 0; g < n; g++ {
		c, err := costmodel.EstimateCapacities(f.W.Model, pl, g, f.Cluster)
		if err != nil {
			t.Fatal(err)
		}
		caps[g], capTotals[g] = c, costmodel.TotalCapacity(c)
	}
	mapped, err := f.mapGraphs(opts, pl, caps, capTotals)
	if err != nil {
		t.Fatal(err)
	}
	ref := &ExecPlan{
		Placement:          pl,
		Mapping:            mapped,
		Capacities:         caps,
		Fusions:            make([]*fusion.Plan, n),
		Schedules:          make([]*sched.Schedule, n),
		Work:               make([]sched.GPUWork, n),
		PredictedExposedUs: make([]float64, n),
	}
	for g := 0; g < n; g++ {
		fp, err := fusion.PlanFusionScaled(scaledGraphs(mapped.PerGPU[g]), fusion.Options{
			Disable:  opts.NoFusion,
			MaxNodes: opts.FusionMaxNodes,
		})
		if err != nil {
			t.Fatal(err)
		}
		s, work, err := f.scheduleGPU(opts, fp, caps[g], mapped, g)
		if err != nil {
			t.Fatal(err)
		}
		ref.Fusions[g], ref.Schedules[g], ref.Work[g] = fp, s, work
		ref.PredictedExposedUs[g] = s.PredictedExposed
	}
	return ref
}

// TestBuildPlanDeterministicUnderConcurrency builds the same plan on two
// fresh frameworks (concurrent probes and lowering, empty memos): the
// plans must be deeply equal.
func TestBuildPlanDeterministicUnderConcurrency(t *testing.T) {
	w := workload(t, Kaggle, 1, 1024)
	a, err := New(w, gpusim.ClusterConfig{NumGPUs: 4}).BuildPlan(BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(w, gpusim.ClusterConfig{NumGPUs: 4}).BuildPlan(BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !plansEqual(a, b) {
		t.Fatal("two fresh frameworks built different plans")
	}
}

// TestBuildPlanFastPathMatchesSequential pins the planner's whole
// contract: the concurrent, memoized planner, cold and warm, must build
// the same plan as the cache-free sequential reference.
func TestBuildPlanFastPathMatchesSequential(t *testing.T) {
	w := workload(t, Kaggle, 1, 1024)
	f := New(w, gpusim.ClusterConfig{NumGPUs: 4})
	cold, err := f.BuildPlan(BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// PreprocPriority is in the plan-cache key but not read by the
	// lowering, so this is a full rebuild answered from warm memos.
	warmOpts := BuildOptions{PreprocPriority: 1}
	warm, err := f.BuildPlan(warmOpts)
	if err != nil {
		t.Fatal(err)
	}
	if warm == cold {
		t.Fatal("warm request was served from the plan cache, not rebuilt")
	}
	ref := referencePlan(t, f, warmOpts)
	if !plansEqual(cold, ref) {
		t.Fatal("cold plan differs from the sequential cache-free reference")
	}
	if !plansEqual(warm, ref) {
		t.Fatal("warm plan differs from the sequential cache-free reference")
	}
	if hits, misses := f.ProbeCacheStats(); hits == 0 {
		t.Fatalf("planner recorded no probe-cache hits (misses %d)", misses)
	}
	if hits, _ := f.FusionCacheStats(); hits == 0 {
		t.Fatal("warm rebuild recorded no fusion solve-cache hits")
	}
}

// TestBuildPlanPlanCache: an identical request returns the cached plan;
// a different request does not.
func TestBuildPlanPlanCache(t *testing.T) {
	w := workload(t, Kaggle, 1, 1024)
	f := New(w, gpusim.ClusterConfig{NumGPUs: 2})
	a, err := f.BuildPlan(BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := f.BuildPlan(BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("identical BuildPlan request was rebuilt instead of served from cache")
	}
	c, err := f.BuildPlan(BuildOptions{Strategy: MapDataParallel})
	if err != nil {
		t.Fatal(err)
	}
	if c == a {
		t.Fatal("different options returned the cached plan")
	}
	// PreprocPriority hashes into a different key but lowers identically.
	d, err := f.BuildPlan(BuildOptions{PreprocPriority: 1})
	if err != nil {
		t.Fatal(err)
	}
	if d == a {
		t.Fatal("a request with a different plan key was served the cached plan")
	}
	if !plansEqual(a, d) {
		t.Fatal("rebuilt plan differs from cached plan")
	}
	if hits, _ := f.FusionCacheStats(); hits == 0 {
		t.Fatal("warm rebuild re-solved every fusion MILP instead of hitting the solve memo")
	}
}

// TestBuildPlanCostModelErrorPropagates: a cost model that fails during
// mapping-candidate scoring must surface from BuildPlan instead of
// being swallowed into a 1e18 sentinel that silently skews the search.
func TestBuildPlanCostModelErrorPropagates(t *testing.T) {
	w := workload(t, Kaggle, 1, 1024)
	f := New(w, gpusim.ClusterConfig{NumGPUs: 4})
	boom := errors.New("synthetic cost-model failure")
	calls := 0
	f.newCostModel = func(caps []costmodel.StageCapacity) (*costmodel.CostModel, error) {
		calls++
		if calls == 3 { // fail one mid-search candidate, not the first
			return nil, boom
		}
		return costmodel.NewCostModel(f.pred, caps)
	}
	_, err := f.BuildPlan(BuildOptions{})
	if !errors.Is(err, boom) {
		t.Fatalf("BuildPlan error = %v, want the injected cost-model failure", err)
	}
}
