package main

import (
	"fmt"
	"sync"

	"rap/internal/costmodel"
	"rap/internal/dlrm"
	"rap/internal/fusion"
	"rap/internal/gpusim"
	"rap/internal/mapping"
	"rap/internal/rap"
	"rap/internal/sched"
)

// replica re-runs the planner's online pass (rap.Framework.buildPlan at
// default options) from the benchmark, so that every layer call can be
// timed from outside: table placement and capacity probes, RAPSearch
// mapping with its cost callback, per-GPU fusion MILP, and the co-run
// schedule. It keeps its own probe and fusion memos, as a Framework
// does, and has no plan cache. Its plans are checked against BuildPlan's
// (planRound in workloads.go); the layer numbers are only reported when
// they agree.
type replica struct {
	w       *rap.Workload
	cluster gpusim.ClusterConfig
	pred    *costmodel.Predictor
	probes  *costmodel.ProbeCache
	solves  *fusion.SolveCache
}

func newReplica(w *rap.Workload, cluster gpusim.ClusterConfig) *replica {
	return &replica{
		w:       w,
		cluster: cluster.WithDefaults(),
		pred:    costmodel.AnalyticPredictor(),
		probes:  costmodel.NewProbeCache(),
		solves:  fusion.NewSolveCache(),
	}
}

// planCounts are the layer counters of one replica build.
type planCounts struct {
	probeHits, probeMisses  int
	costEvals, costMemoHits int
	solveHits, solveMisses  int
	milpTruncated           int
}

func (c *planCounts) add(o planCounts) {
	c.probeHits += o.probeHits
	c.probeMisses += o.probeMisses
	c.costEvals += o.costEvals
	c.costMemoHits += o.costMemoHits
	c.solveHits += o.solveHits
	c.solveMisses += o.solveMisses
	c.milpTruncated += o.milpTruncated
}

// build plans the replica's current workload. Spans: "probe" (placement
// and per-GPU capacity estimation), "mapping" with one "mapping_cost"
// child per cost evaluation, and "lowering" with one "lower" child per
// GPU, each holding that GPU's "fusion" child.
func (r *replica) build(tr *tracer, op, parent int) (*rap.ExecPlan, planCounts, error) {
	var cnt planCounts
	n := r.cluster.NumGPUs
	ph0, pm0 := r.probes.Stats()
	sh0, sm0 := r.solves.Stats()

	sp := tr.begin("probe", op, parent)
	pl := dlrm.PlaceTables(r.w.Model.TableSizes, n)
	caps := make([][]costmodel.StageCapacity, n)
	errs := make([]error, n)
	estimate := func(g int) {
		caps[g], errs[g] = costmodel.EstimateCapacitiesCached(r.w.Model, pl, g, r.cluster, r.probes)
	}
	// GPU 0 first, to warm the probe memo, then the rest concurrently:
	// the same order BuildPlan uses.
	estimate(0)
	if errs[0] == nil {
		var wg sync.WaitGroup
		for g := 1; g < n; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				estimate(g)
			}(g)
		}
		wg.Wait()
	}
	tr.end(sp)
	for _, err := range errs {
		if err != nil {
			return nil, cnt, fmt.Errorf("capacity probes: %w", err)
		}
	}
	capTotals := make([]float64, n)
	for g := range caps {
		capTotals[g] = costmodel.TotalCapacity(caps[g])
	}

	var costErr error
	mp := tr.begin("mapping", op, parent)
	cost := func(gpu int, items []mapping.Assign, commBytes float64) float64 {
		cs := tr.begin("mapping_cost", op, mp)
		defer tr.end(cs)
		v, err := r.scoreCandidate(caps[gpu], items, commBytes)
		if err != nil && costErr == nil {
			costErr = fmt.Errorf("scoring mapping candidate on gpu %d: %w", gpu, err)
		}
		return v
	}
	mapped, err := mapping.RAPSearch(mapping.Config{
		Plan:           r.w.Plan,
		Placement:      pl,
		PerGPUBatch:    r.w.Model.BatchSize,
		LinkGBs:        r.cluster.LinkGBs,
		CapacityPerGPU: capTotals,
		Cost:           cost,
	})
	tr.end(mp)
	if costErr != nil {
		return nil, cnt, costErr
	}
	if err != nil {
		return nil, cnt, fmt.Errorf("mapping: %w", err)
	}
	cnt.costEvals, cnt.costMemoHits = mapped.CostEvals, mapped.CostCacheHits

	plan := &rap.ExecPlan{
		Workload:           r.w,
		Cluster:            r.cluster,
		Opts:               rap.BuildOptions{Strategy: rap.MapRAP},
		Placement:          pl,
		Mapping:            mapped,
		Capacities:         caps,
		Fusions:            make([]*fusion.Plan, n),
		Schedules:          make([]*sched.Schedule, n),
		PredictedExposedUs: make([]float64, n),
	}
	// Graph.Deps is built lazily; warm it before the concurrent
	// lowerings read it, as BuildPlan does.
	for _, gr := range r.w.Plan.Graphs {
		gr.Deps()
	}
	lp := tr.begin("lowering", op, parent)
	lowerErrs := make([]error, n)
	var wg sync.WaitGroup
	for g := 0; g < n; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			lowerErrs[g] = r.lower(plan, g, tr, op, lp)
		}(g)
	}
	wg.Wait()
	tr.end(lp)
	for _, err := range lowerErrs {
		if err != nil {
			return nil, cnt, err
		}
	}
	for _, fp := range plan.Fusions {
		if !fp.Optimal {
			cnt.milpTruncated++
		}
	}
	ph1, pm1 := r.probes.Stats()
	sh1, sm1 := r.solves.Stats()
	cnt.probeHits, cnt.probeMisses = ph1-ph0, pm1-pm0
	cnt.solveHits, cnt.solveMisses = sh1-sh0, sm1-sm0
	return plan, cnt, nil
}

// scoreCandidate is the mapping cost BuildPlan uses: greedy fusion, the
// co-run schedule's predicted exposure, plus the move's communication.
func (r *replica) scoreCandidate(caps []costmodel.StageCapacity, items []mapping.Assign, commBytes float64) (float64, error) {
	sg := make([]fusion.ScaledGraph, len(items))
	for i, a := range items {
		sg[i] = fusion.ScaledGraph{Graph: a.Graph, Shape: a.Shape}
	}
	fp, err := fusion.PlanFusionScaled(sg, fusion.Options{GreedyOnly: true})
	if err != nil {
		return 1e18, err
	}
	cm, err := costmodel.NewCostModel(r.pred, caps)
	if err != nil {
		return 1e18, err
	}
	s, err := sched.CoRunSchedule(fp, cm, sched.Options{})
	if err != nil {
		return 1e18, err
	}
	return s.PredictedExposed + commBytes*rap.ScatterInefficiency/(r.cluster.LinkGBs*1e3), nil
}

// lower fuses and schedules GPU g's assignment. With one goroutine per
// GPU, each MILP solve runs single-threaded, as in BuildPlan.
func (r *replica) lower(plan *rap.ExecPlan, g int, tr *tracer, op, parent int) error {
	ls := tr.begin("lower", op, parent)
	defer tr.end(ls)
	items := make([]fusion.ScaledGraph, len(plan.Mapping.PerGPU[g]))
	for i, a := range plan.Mapping.PerGPU[g] {
		items[i] = fusion.ScaledGraph{Graph: a.Graph, Shape: a.Shape}
	}
	fs := tr.begin("fusion", op, ls)
	fp, err := fusion.PlanFusionScaled(items, fusion.Options{Workers: 1, SolveCache: r.solves})
	tr.end(fs)
	if err != nil {
		return fmt.Errorf("fusion on gpu %d: %w", g, err)
	}
	cm, err := costmodel.NewCostModel(r.pred, plan.Capacities[g])
	if err != nil {
		return fmt.Errorf("cost model on gpu %d: %w", g, err)
	}
	s, err := sched.CoRunSchedule(fp, cm, sched.Options{})
	if err != nil {
		return fmt.Errorf("co-run schedule on gpu %d: %w", g, err)
	}
	plan.Fusions[g] = fp
	plan.Schedules[g] = s
	plan.PredictedExposedUs[g] = s.PredictedExposed
	return nil
}
