package main

import (
	"encoding/json"
	"fmt"
	"os"
	"time"

	clustersim "rap/internal/cluster"
	"rap/internal/experiments"
	"rap/internal/topo"
)

// readCommittedFleet reads a fleet report as rapbench -cluster commits
// it (BENCH_cluster.json).
func readCommittedFleet(path string) (*experiments.ClusterResult, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rep experiments.ClusterResult
	if err := json.Unmarshal(raw, &rep); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rep, nil
}

// sweepConfig is the configuration a sweep ran at, defaults applied.
func sweepConfig(r *experiments.ClusterResult) experiments.ClusterSweepConfig {
	return experiments.ClusterSweepConfig{
		Nodes: r.Nodes, GPUsPerNode: r.GPUsPerNode, FabricGBs: r.FabricGBs, Oversub: r.Oversub,
		Jobs: r.Jobs, Seed: r.Seed, MeanGapUs: r.MeanGapUs,
	}
}

// fleetPolicies are the policies experiments.ClusterSweep compares, in
// its order.
var fleetPolicies = []clustersim.Policy{clustersim.Pack{}, clustersim.FirstFit{}}

// admissionMeter wraps a placement policy and times every Place call.
// It delegates Name and Place unchanged, so the simulation it drives
// must digest exactly as the unwrapped policy's does.
type admissionMeter struct {
	inner  clustersim.Policy
	calls  int
	misses int
	busy   time.Duration
}

func (m *admissionMeter) Name() string { return m.inner.Name() }

func (m *admissionMeter) Place(v *clustersim.FleetView, want int) []int {
	t := time.Now()
	alloc := m.inner.Place(v, want)
	m.busy += time.Since(t)
	m.calls++
	if alloc == nil {
		m.misses++
	}
	return alloc
}

// fleetLayers are one policy's per-layer numbers from a traced fleet op.
type fleetLayers struct {
	admissionMs    float64
	placeCalls     int
	placeMissRatio float64
	planningMs     float64
	jobSimMs       float64
	splitJobs      int
	avgQueueS      float64
}

// tracedFleet replays experiments.ClusterSweep policy by policy with
// the admission meter in place. Each policy's fresh simulator runs the
// trace twice: the first Simulate plans every shape, the second finds
// the plans cached, so planning time is the difference of the two and
// job simulation is the second run less its admission time. Both
// reports must digest as the reference sweep's do. cfg is the reference
// sweep's configuration with defaults applied, so both run one trace.
func tracedFleet(cfg experiments.ClusterSweepConfig, ref map[string]string, tr *tracer, op int) (map[string]fleetLayers, error) {
	fleet := topo.Uniform(cfg.Nodes, cfg.GPUsPerNode)
	fleet.FabricGBs = cfg.FabricGBs
	fleet.Oversub = cfg.Oversub
	jobs, err := clustersim.GenerateJobs(clustersim.GenConfig{
		Seed: cfg.Seed, NumJobs: cfg.Jobs, MeanGapUs: cfg.MeanGapUs, MaxGPUs: fleet.NumGPUs(),
	})
	if err != nil {
		return nil, err
	}
	out := map[string]fleetLayers{}
	for _, pol := range fleetPolicies {
		meter := &admissionMeter{inner: pol}
		sim, err := clustersim.New(clustersim.Config{Topo: fleet, Policy: meter, HostCores: experiments.HostCores})
		if err != nil {
			return nil, err
		}
		ps := tr.begin("fleet/"+pol.Name(), op, -1)
		s1 := tr.begin("simulate_cold", op, ps)
		t0 := time.Now()
		rep, err := sim.Simulate(jobs)
		cold := time.Since(t0)
		tr.end(s1)
		if err != nil {
			tr.end(ps)
			return nil, err
		}
		firstAdmission, calls, misses := meter.busy, meter.calls, meter.misses
		meter.busy = 0
		s2 := tr.begin("simulate_cached", op, ps)
		t0 = time.Now()
		rep2, err := sim.Simulate(jobs)
		cached := time.Since(t0)
		tr.end(s2)
		tr.end(ps)
		if err != nil {
			return nil, err
		}
		for _, r := range []*clustersim.Report{rep, rep2} {
			if d := r.Digest(); d != ref[pol.Name()] {
				return nil, fmt.Errorf("fleet %s: metered report digest %s, reference %s", pol.Name(), d, ref[pol.Name()])
			}
		}
		l := fleetLayers{
			admissionMs: ms(firstAdmission),
			placeCalls:  calls,
			planningMs:  ms(cold - cached),
			jobSimMs:    ms(cached - meter.busy),
			avgQueueS:   rep.AvgQueueUs * 1e-6,
		}
		if calls > 0 {
			l.placeMissRatio = float64(misses) / float64(calls)
		}
		for _, jr := range rep.Results {
			if jr.Nodes > 1 {
				l.splitJobs++
			}
		}
		out[pol.Name()] = l
	}
	return out, nil
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
