package main

import (
	"fmt"
	"sort"
	"strings"
	"time"
)

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// replicaRound is one traced cold or warm round: the replica's plan
// hashes, counters and time, and the time BuildPlan took for the same
// requests.
type replicaRound struct {
	kind      string
	op        int
	replica   time.Duration
	buildPlan time.Duration
	counts    planCounts
	hashes    []string // per shape, the replica plan's artifact hash
}

// simRound is one traced execute round.
type simRound struct {
	ms                        float64
	events, ops, utilSegments int
	perShape                  map[string]float64 // shape -> execute ms
}

// layerSamples collects what the traced ops measured.
type layerSamples struct {
	rounds                 []replicaRound
	mismatches             []string // replica plans that differ from BuildPlan's
	cacheHits, hitRequests int
	sim                    []simRound
	fleet                  []map[string]fleetLayers
}

// replicaRequest plans shape i at list length l with the cycle's
// replica, under a span of the round's op.
func (b *bench) replicaRequest(c *cycle, i int, l float64, rp *replicaRound) error {
	rep := c.reps[i]
	if rp.kind == "plan_warm" {
		rep.w = rep.w.WithListLen(l)
	}
	if rp.hashes == nil {
		rp.hashes = make([]string, len(benchShapes))
	}
	sp := b.tr.begin("plan/"+benchShapes[i].name, rp.op, -1)
	t0 := time.Now()
	p, cnt, err := rep.build(b.tr, rp.op, sp)
	rp.replica += time.Since(t0)
	b.tr.end(sp)
	if err != nil {
		return fmt.Errorf("replica %s: %w", benchShapes[i].name, err)
	}
	h, err := planHash(p)
	if err != nil {
		return err
	}
	rp.hashes[i] = h
	rp.counts.add(cnt)
	return nil
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func ratio(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// endToEnd reports the end-to-end metrics. Host times are medians over
// the loop's ops of their kind; set-up's ops are not timed.
func (b *bench) endToEnd(setupS, allocPerOp float64) map[string]metric {
	return map[string]metric{
		"setup_s":           {setupS, "s"},
		"plan_cold_ms":      {median(b.times["plan_cold"]), "ms"},
		"plan_warm_ms":      {median(b.times["plan_warm"]), "ms"},
		"plan_hit_ms":       {median(b.times["plan_hit"]), "ms"},
		"execute_ms":        {median(b.times["execute"]), "ms"},
		"sim_events_per_s":  {median(b.eventRate), "1/s"},
		"sim_samples_per_s": {b.samplesPerS, "samples/sim_s"},
		"fleet_wall_s":      {median(b.times["fleet"]) / 1e3, "s"},
		"fleet_avg_jct_s":   {b.avgJCTs, "sim_s"},
		"alloc_mb_per_op":   {allocPerOp, "MB"},
	}
}

// perLayer reports the traced run's layer metrics. The planner's are
// withheld when a replica plan differed from BuildPlan's.
func (b *bench) perLayer() map[string]metric {
	out := map[string]metric{}
	l := &b.layers
	if len(l.mismatches) == 0 {
		self := b.tr.selfTimes()
		spanMs := map[string]map[int]float64{}
		for _, name := range []string{"probe", "mapping", "mapping_cost", "fusion", "lower"} {
			spanMs[name] = b.tr.selfMsByOp(self, name)
		}
		for _, kind := range []string{"cold", "warm"} {
			vals := map[string][]float64{}
			for _, r := range l.rounds {
				if r.kind != "plan_"+kind {
					continue
				}
				for name, byOp := range spanMs {
					vals[name+"_ms"] = append(vals[name+"_ms"], byOp[r.op])
				}
				c := r.counts
				vals["milp_truncated"] = append(vals["milp_truncated"], float64(c.milpTruncated))
				vals["probe_hit_ratio"] = append(vals["probe_hit_ratio"], ratio(c.probeHits, c.probeHits+c.probeMisses))
				vals["mapping_cost_evals"] = append(vals["mapping_cost_evals"], float64(c.costEvals))
				vals["mapping_memo_hit_ratio"] = append(vals["mapping_memo_hit_ratio"], ratio(c.costMemoHits, c.costEvals+c.costMemoHits))
				vals["fusion_memo_hit_ratio"] = append(vals["fusion_memo_hit_ratio"], ratio(c.solveHits, c.solveHits+c.solveMisses))
			}
			for name, xs := range vals {
				out["planner."+kind+"."+name] = metric{median(xs), layerUnit(name)}
			}
		}
	}
	out["planner.plan_cache_hit_ratio"] = metric{ratio(l.cacheHits, l.hitRequests), "ratio"}

	sims := map[string][]float64{}
	for _, s := range l.sim {
		sims["ns_per_event"] = append(sims["ns_per_event"], s.ms*1e6/float64(s.events))
		sims["events"] = append(sims["events"], float64(s.events))
		sims["ops"] = append(sims["ops"], float64(s.ops))
		sims["util_segments"] = append(sims["util_segments"], float64(s.utilSegments))
		for name, v := range s.perShape {
			sims[name+".execute_ms"] = append(sims[name+".execute_ms"], v)
		}
	}
	for name, xs := range sims {
		out["sim."+name] = metric{median(xs), layerUnit(name)}
	}

	fl := map[string][]float64{}
	for _, byPol := range l.fleet {
		for pol, f := range byPol {
			p := pol + "."
			fl[p+"admission_ms"] = append(fl[p+"admission_ms"], f.admissionMs)
			fl[p+"place_calls"] = append(fl[p+"place_calls"], float64(f.placeCalls))
			fl[p+"place_miss_ratio"] = append(fl[p+"place_miss_ratio"], f.placeMissRatio)
			fl[p+"planning_ms"] = append(fl[p+"planning_ms"], f.planningMs)
			fl[p+"job_sim_ms"] = append(fl[p+"job_sim_ms"], f.jobSimMs)
			fl[p+"split_jobs"] = append(fl[p+"split_jobs"], float64(f.splitJobs))
			fl[p+"avg_queue_s"] = append(fl[p+"avg_queue_s"], f.avgQueueS)
		}
	}
	for name, xs := range fl {
		out["fleet."+name] = metric{median(xs), layerUnit(name)}
	}

	out["trace.overhead_pct"] = metric{b.overheadPct(), "%"}
	return out
}

// overheadPct compares the workload's traced ops with its untraced ops
// of the same kind, measured in the same run.
func (b *bench) overheadPct() float64 {
	var traced, plain float64
	switch b.opt.workload {
	case "replan":
		var r, p time.Duration
		for _, rr := range b.layers.rounds {
			r += rr.replica
			p += rr.buildPlan
		}
		traced, plain = r.Seconds(), p.Seconds()
	case "pipeline-sim":
		var ts []float64
		for _, s := range b.layers.sim {
			ts = append(ts, s.ms)
		}
		traced, plain = median(ts), median(b.times["execute"])
	}
	if plain == 0 {
		return 0
	}
	return 100 * (traced/plain - 1)
}

func layerUnit(name string) string {
	switch {
	case strings.HasSuffix(name, "_ms"):
		return "ms"
	case strings.HasSuffix(name, "_ratio"):
		return "ratio"
	case name == "ns_per_event":
		return "ns"
	case strings.HasSuffix(name, "avg_queue_s"):
		return "sim_s"
	}
	return "count"
}
