package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"time"

	"rap/internal/experiments"
	"rap/internal/gpusim"
	"rap/internal/rap"
)

// shape is one job shape of the fleet's menu: the planner and the
// simulator see exactly the workloads the cluster loop plans.
type shape struct {
	name    string
	ds      rap.Dataset
	planIdx int
	batch   int
	gpus    int
}

// benchShapes copies the cluster job menu (internal/cluster shapeMenu).
// It is spelled out rather than derived so that a change to the menu
// shows up as a benchmark edit, not as a silent change of workload.
// Plans 0 and 1 solve their fusion MILPs to optimality; plans 2 and 3
// hit the node budget on every GPU.
var benchShapes = []shape{
	{"kaggle_p0_g2", rap.Kaggle, 0, 2048, 2},
	{"kaggle_p0_g4", rap.Kaggle, 0, 4096, 4},
	{"terabyte_p1_g4", rap.Terabyte, 1, 4096, 4},
	{"terabyte_p1_g8", rap.Terabyte, 1, 4096, 8},
	{"terabyte_p2_g8", rap.Terabyte, 2, 2048, 8},
	{"terabyte_p3_g16", rap.Terabyte, 3, 4096, 16},
}

// simIterations is how many pipeline iterations a fleet job simulates
// (the cluster loop's default); pipeline-sim executes each plan as long.
const simIterations = 8

// shiftLo and shiftHi bound the shifted list lengths; the base plans use
// the preprocessing plan's own length, 3. The range is the benchmark's
// choice, not taken from a trace: see NOTES.md.
const shiftLo, shiftHi = 2.0, 20.0

// sizes sets how much work a set-up and a replan cycle do.
type sizes struct {
	poolSize    int // shifted list lengths per shape; a cycle shifts to each
	hitPerCycle int // hit rounds per replan cycle
	setups      int // set-ups per run; setup_s is their median
	fleet       experiments.ClusterSweepConfig
}

// defaultFleet is BENCH_cluster.json's configuration.
func defaultFleet(jobSeed int64) experiments.ClusterSweepConfig {
	return experiments.ClusterSweepConfig{
		Nodes: 128, GPUsPerNode: 8, FabricGBs: 100, Oversub: 4,
		Jobs: 180, Seed: jobSeed, MeanGapUs: 2000,
	}
}

func fullSizes(jobSeed int64) sizes {
	return sizes{poolSize: 6, hitPerCycle: 6, setups: 3, fleet: defaultFleet(jobSeed)}
}

// shortSizes keeps every code path but runs in seconds: the tests use it.
func shortSizes(jobSeed int64) sizes {
	f := defaultFleet(jobSeed)
	f.Nodes, f.Jobs = 4, 12
	return sizes{poolSize: 2, hitPerCycle: 1, setups: 2, fleet: f}
}

// bench is one run: the synthesized inputs, the reference outputs every
// op is checked against, and what the ops measured.
type bench struct {
	opt   options
	sz    sizes
	mix   *rand.Rand // round mix, hit choice and execution order (workload seed)
	shift *rand.Rand // the order each cycle shifts to the list lengths (shift seed)

	base    []*rap.Workload
	pool    [][]float64          // per shape: the shifted list lengths, ascending
	refHash []map[float64]string // per shape: list length -> plan artifact hash

	execFw      []*rap.Framework
	execPlan    []*rap.ExecPlan
	refDigest   []string
	samplesPerS float64 // geometric mean of the six plans' throughput

	committed *experiments.ClusterResult     // the fleet report BENCH_cluster.json commits
	fleetCfg  experiments.ClusterSweepConfig // the reference sweep's, defaults applied
	fleetRef  map[string]string              // policy -> report digest
	avgJCTs   float64                        // pack policy, simulated seconds

	measuring bool                 // set-up is over: ops are timed
	times     map[string][]float64 // op kind -> host times
	eventRate []float64            // simulated events per host second, per execute round
	attempted int
	failed    int
	failures  []string

	tr     *tracer
	layers layerSamples
}

func newBench(opt options, sz sizes) *bench {
	b := &bench{
		opt:   opt,
		sz:    sz,
		mix:   rand.New(rand.NewSource(opt.seed)),
		shift: rand.New(rand.NewSource(opt.shiftSeed)),
		times: map[string][]float64{},
	}
	if opt.trace {
		b.tr = newTracer()
	}
	return b
}

func clusterFor(s shape) gpusim.ClusterConfig {
	return gpusim.ClusterConfig{NumGPUs: s.gpus, HostCores: experiments.HostCores}
}

// fail records a failed op.
func (b *bench) fail(format string, args ...any) {
	b.failed++
	if len(b.failures) < 8 {
		b.failures = append(b.failures, fmt.Sprintf(format, args...))
	}
}

// check counts one attempted op and its failure, if any.
func (b *bench) check(err error) {
	b.attempted++
	if err != nil {
		b.fail("%s: %v", b.opt.workload, err)
	}
}

// record keeps an op's host time once set-up is over; set-up's ops
// are the run's warm-up.
func (b *bench) record(kind string, d time.Duration) {
	if !b.measuring {
		return
	}
	b.times[kind] = append(b.times[kind], float64(d)/1e6)
}

// settle collects garbage before a timed op, so that no op pays for
// the collection debt of the ops before it; each op still pays for the
// collections its own allocation triggers.
func settle() { runtime.GC() }

func planHash(p *rap.ExecPlan) (string, error) {
	raw, err := rap.MarshalPlan(p)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(raw)
	return hex.EncodeToString(sum[:]), nil
}

// setup synthesizes the inputs and computes the reference outputs of
// the planner and the simulator: plan hashes per (shape, list length)
// from a cold round and a warm walk over every shifted length, and the
// execution digests of the six plans. A repeated set-up recomputes them
// on fresh frameworks and must agree with the first; any error is
// fatal. The fleet's reference is the run's first sweep (see fleetOp).
func (b *bench) setup() error {
	first := b.refHash == nil
	if first {
		var err error
		if b.committed, err = readCommittedFleet(b.opt.clusterRef); err != nil {
			return fmt.Errorf("committed fleet report: %w", err)
		}
		b.refHash = make([]map[float64]string, len(benchShapes))
		for i := range b.refHash {
			b.refHash[i] = map[float64]string{}
		}
	}
	b.base = make([]*rap.Workload, len(benchShapes))
	b.pool = make([][]float64, len(benchShapes))
	for i, s := range benchShapes {
		w, err := rap.NewWorkload(s.ds, s.planIdx, s.batch, 1)
		if err != nil {
			return fmt.Errorf("workload %s: %w", s.name, err)
		}
		b.base[i] = w
		// The lengths are the centres of equal-width bins; every cycle
		// shifts to all of them, in shift-seed order. Which lengths a
		// round plans moves its time far more than noise does, so every
		// seed plans the same set.
		width := (shiftHi - shiftLo) / float64(b.sz.poolSize)
		for k := 0; k < b.sz.poolSize; k++ {
			l := math.Round((shiftLo+width*(float64(k)+0.5))*100) / 100
			if l == w.Plan.AvgListLen {
				l += 0.01
			}
			b.pool[i] = append(b.pool[i], l)
		}
	}

	// These frameworks execute the plans and are never shifted: Execute
	// simulates a plan with its framework's current model.
	c := b.newCycle()
	if err := b.coldRound(c); err != nil {
		return fmt.Errorf("reference plans: %w", err)
	}
	b.execFw, b.execPlan = c.fws, nil
	for i := range c.fws {
		b.execPlan = append(b.execPlan, c.planned[i][b.base[i].Plan.AvgListLen])
	}
	if err := b.executeRound(false); err != nil {
		return fmt.Errorf("reference execute: %w", err)
	}

	// The warm walk: round k gives shape i the (k+i)-th shortest length,
	// so that no round holds only short or only long lists. The walk is
	// the same for every seed.
	walk := b.newCycle()
	if err := b.coldRound(walk); err != nil {
		return fmt.Errorf("reference plans: %w", err)
	}
	for k := 0; k < b.sz.poolSize; k++ {
		lens := make([]float64, len(benchShapes))
		for i := range lens {
			lens[i] = b.pool[i][(k+i)%b.sz.poolSize]
		}
		if err := b.warmRound(walk, lens); err != nil {
			return fmt.Errorf("reference warm walk: %w", err)
		}
	}
	return nil
}

// cycle is one generation of replan frameworks: a cold round creates
// them, warm and hit rounds reuse them, the next cycle replaces them.
type cycle struct {
	fws       []*rap.Framework
	reps      []*replica // traced runs only
	planned   []map[float64]*rap.ExecPlan
	hashOf    map[*rap.ExecPlan]string
	unplanned [][]float64 // per shape, in the order warm rounds use them
}

func (b *bench) newCycle() *cycle {
	c := &cycle{hashOf: map[*rap.ExecPlan]string{}}
	for i, s := range benchShapes {
		c.fws = append(c.fws, rap.New(b.base[i], clusterFor(s)))
		c.planned = append(c.planned, map[float64]*rap.ExecPlan{})
		order := b.shift.Perm(len(b.pool[i]))
		lens := make([]float64, len(order))
		for k, j := range order {
			lens[k] = b.pool[i][j]
		}
		c.unplanned = append(c.unplanned, lens)
		if b.tr != nil {
			c.reps = append(c.reps, newReplica(b.base[i], clusterFor(s)))
		}
	}
	return c
}

// verify checks a plan against the reference for (shape, list length),
// recording the reference the first time a pair is planned.
func (b *bench) verify(c *cycle, i int, l float64, p *rap.ExecPlan) error {
	h, ok := c.hashOf[p]
	if !ok {
		var err error
		if h, err = planHash(p); err != nil {
			return err
		}
		c.hashOf[p] = h
	}
	ref, ok := b.refHash[i][l]
	if !ok {
		b.refHash[i][l] = h
		return nil
	}
	if h != ref {
		return fmt.Errorf("%s at list length %g: plan hash %s, reference %s", benchShapes[i].name, l, h, ref)
	}
	return nil
}

// coldRound plans every shape once on the cycle's fresh frameworks.
func (b *bench) coldRound(c *cycle) error {
	lens := make([]float64, len(benchShapes))
	for i := range lens {
		lens[i] = b.base[i].Plan.AvgListLen
	}
	return b.planRound(c, "plan_cold", lens, func(fw *rap.Framework, _ float64) (*rap.ExecPlan, error) {
		return fw.BuildPlan(rap.BuildOptions{})
	})
}

// warmRound shifts every shape to a list length it has not planned: the
// probe and fusion memos are warm, the plan cache misses.
func (b *bench) warmRound(c *cycle, lens []float64) error {
	return b.planRound(c, "plan_warm", lens, func(fw *rap.Framework, l float64) (*rap.ExecPlan, error) {
		return fw.AdaptToShift(l, rap.BuildOptions{})
	})
}

// nextWarm takes each shape's next unplanned list length.
func (b *bench) nextWarm(c *cycle) []float64 {
	lens := make([]float64, len(benchShapes))
	for i := range lens {
		lens[i] = c.unplanned[i][0]
		c.unplanned[i] = c.unplanned[i][1:]
	}
	return lens
}

func (b *bench) planRound(c *cycle, kind string, lens []float64, req func(*rap.Framework, float64) (*rap.ExecPlan, error)) error {
	settle()
	var op int
	if b.tr != nil {
		op = b.tr.newOp()
	}
	plans := make([]*rap.ExecPlan, len(benchShapes))
	var total time.Duration
	var rp *replicaRound
	if b.tr != nil {
		rp = &replicaRound{kind: kind, op: op}
	}
	for i, fw := range c.fws {
		if rp != nil {
			if err := b.replicaRequest(c, i, lens[i], rp); err != nil {
				return err
			}
		}
		t0 := time.Now()
		p, err := req(fw, lens[i])
		total += time.Since(t0)
		if err != nil {
			return fmt.Errorf("%s %s: %w", kind, benchShapes[i].name, err)
		}
		plans[i] = p
	}
	b.record(kind, total)
	if rp != nil {
		rp.buildPlan = total
		b.layers.rounds = append(b.layers.rounds, *rp)
	}
	for i, p := range plans {
		c.planned[i][lens[i]] = p
		if err := b.verify(c, i, lens[i], p); err != nil {
			return err
		}
		if rp != nil && rp.hashes[i] != c.hashOf[p] {
			b.layers.mismatches = append(b.layers.mismatches,
				fmt.Sprintf("%s %s at list length %g", kind, benchShapes[i].name, lens[i]))
		}
	}
	return nil
}

// hitRound repeats, for every shape, a request the cycle already
// planned. A plan-cache hit returns the very same *ExecPlan.
func (b *bench) hitRound(c *cycle) error {
	lens := make([]float64, len(benchShapes))
	for i := range lens {
		keys := make([]float64, 0, len(c.planned[i]))
		for l := range c.planned[i] {
			keys = append(keys, l)
		}
		sort.Float64s(keys)
		lens[i] = keys[b.mix.Intn(len(keys))]
	}
	plans := make([]*rap.ExecPlan, len(benchShapes))
	settle()
	t0 := time.Now()
	for i, fw := range c.fws {
		p, err := fw.AdaptToShift(lens[i], rap.BuildOptions{})
		if err != nil {
			return fmt.Errorf("plan_hit %s: %w", benchShapes[i].name, err)
		}
		plans[i] = p
	}
	b.record("plan_hit", time.Since(t0))
	for i, p := range plans {
		if p == c.planned[i][lens[i]] {
			b.layers.cacheHits++
		}
		b.layers.hitRequests++
		if err := b.verify(c, i, lens[i], p); err != nil {
			return err
		}
	}
	return nil
}

// replanCycle is one cycle of the replan request stream: a cold round,
// then a warm round per shifted length and the hit rounds, in seeded
// order.
func (b *bench) replanCycle() {
	c := b.newCycle()
	b.check(b.coldRound(c))
	kinds := make([]bool, b.sz.poolSize+b.sz.hitPerCycle) // true = warm
	for k := 0; k < b.sz.poolSize; k++ {
		kinds[k] = true
	}
	b.mix.Shuffle(len(kinds), func(x, y int) { kinds[x], kinds[y] = kinds[y], kinds[x] })
	for _, warm := range kinds {
		if warm {
			b.check(b.warmRound(c, b.nextWarm(c)))
		} else {
			b.check(b.hitRound(c))
		}
	}
}

// executeRound simulates all six prebuilt plans, in seeded order, and
// checks each result's digest; digests are taken outside the timing.
// The first round sets the reference digests and the plan-quality
// number, the geometric mean of the six plans' throughput.
func (b *bench) executeRound(traced bool) error {
	settle()
	first := b.refDigest == nil
	if first {
		b.refDigest = make([]string, len(benchShapes))
	}
	tput := make([]float64, len(benchShapes))
	var op, root int
	if traced {
		op = b.tr.newOp()
		root = b.tr.begin("execute_round", op, -1)
	}
	var total time.Duration
	sr := simRound{perShape: map[string]float64{}}
	for _, i := range b.mix.Perm(len(benchShapes)) {
		sp := -1
		if traced {
			sp = b.tr.begin("execute/"+benchShapes[i].name, op, root)
		}
		t0 := time.Now()
		st, err := b.execFw[i].Execute(b.execPlan[i], simIterations)
		d := time.Since(t0)
		if traced {
			b.tr.end(sp)
		}
		total += d
		if err != nil {
			return fmt.Errorf("execute %s: %w", benchShapes[i].name, err)
		}
		dg := gpusim.ResultDigest(st.Result)
		if first {
			b.refDigest[i] = dg
			tput[i] = st.Throughput
		} else if dg != b.refDigest[i] {
			return fmt.Errorf("execute %s: digest %s, reference %s", benchShapes[i].name, dg, b.refDigest[i])
		}
		sr.events += st.Result.Events
		sr.ops += len(st.Result.Ops)
		for _, u := range st.Result.Util {
			sr.utilSegments += len(u)
		}
		sr.perShape[benchShapes[i].name] = ms(d)
	}
	if traced {
		b.tr.end(root)
		sr.ms = ms(total)
		b.layers.sim = append(b.layers.sim, sr)
	} else {
		b.record("execute", total)
	}
	b.eventRate = append(b.eventRate, float64(sr.events)/total.Seconds())
	if first {
		// Summed in shape order, not execution order, so the mean is
		// bit-identical for every seed.
		logSum := 0.0
		for _, t := range tput {
			logSum += math.Log(t)
		}
		b.samplesPerS = math.Exp(logSum / float64(len(tput)))
	}
	return nil
}

// fleetOp runs one ClusterSweep on fresh simulators and checks each
// policy's report digest against the reference sweep's.
func (b *bench) fleetOp() error {
	settle()
	t0 := time.Now()
	res, err := experiments.ClusterSweep(b.sz.fleet)
	d := time.Since(t0)
	if err != nil {
		return err
	}
	b.record("fleet", d)
	ref := b.fleetRef
	if ref == nil {
		// The first sweep is the reference. At the configuration
		// BENCH_cluster.json was recorded at, it must match the digests
		// committed there.
		b.fleetRef = map[string]string{}
		for _, row := range res.Rows {
			b.fleetRef[row.Policy] = row.Digest
			if row.Policy == "pack" {
				b.avgJCTs = row.AvgJCTUs / 1e6
			}
		}
		b.fleetCfg = sweepConfig(res)
		if sweepConfig(b.committed) != b.fleetCfg {
			return nil
		}
		ref = map[string]string{}
		for _, row := range b.committed.Rows {
			ref[row.Policy] = row.Digest
		}
	}
	for _, row := range res.Rows {
		if row.Digest != ref[row.Policy] {
			return fmt.Errorf("fleet %s: digest %s, reference %s", row.Policy, row.Digest, ref[row.Policy])
		}
	}
	return nil
}

// tracedFleetOp is fleetOp with the admission meter and the
// double-Simulate split.
func (b *bench) tracedFleetOp() error {
	settle()
	op := b.tr.newOp()
	l, err := tracedFleet(b.fleetCfg, b.fleetRef, b.tr, op)
	if err != nil {
		return err
	}
	b.layers.fleet = append(b.layers.fleet, l)
	return nil
}

// share is one op kind's share of a workload's measured time.
type share struct {
	kind string // "plan" (a replan cycle), "execute" (a round) or "fleet" (a sweep)
	frac float64
}

// mixes gives each workload's measured time to its own op kind, listed
// first, and to the other kinds, which every run samples too because
// every end-to-end metric is reported on every workload.
var mixes = map[string][]share{
	"replan":       {{"plan", 0.5}, {"execute", 0.2}, {"fleet", 0.3}},
	"pipeline-sim": {{"execute", 0.45}, {"plan", 0.25}, {"fleet", 0.3}},
}

// loop runs ops until the deadline. Each op goes to the kind that has
// used the least of its share so far, among the kinds whose last op
// would still end before the deadline. So every kind is sampled across
// the whole run, not in one stretch of it, and every kind runs at least
// once. It returns the heap bytes allocated per op of the workload's
// own kind; a replan cycle counts as its rounds.
func (b *bench) loop(deadline time.Time) float64 {
	b.measuring = true
	mix := mixes[b.opt.workload]
	used := make([]time.Duration, len(mix))
	last := make([]time.Duration, len(mix))
	var alloc uint64
	var own, executes int
	for {
		k := -1
		now := time.Now()
		for j, s := range mix {
			if last[j] > 0 && now.Add(last[j]).After(deadline) {
				continue
			}
			if k < 0 || used[j].Seconds()/s.frac < used[k].Seconds()/mix[k].frac {
				k = j
			}
		}
		if k < 0 {
			break
		}
		var ms0, ms1 runtime.MemStats
		if k == 0 {
			runtime.ReadMemStats(&ms0)
		}
		before := b.attempted
		t0 := time.Now()
		switch mix[k].kind {
		case "plan":
			b.replanCycle()
		case "execute":
			// A traced run traces every other round, from the first.
			b.check(b.executeRound(b.tr != nil && executes%2 == 0))
			executes++
		case "fleet":
			b.check(b.fleetOp())
		}
		last[k] = time.Since(t0)
		used[k] += last[k]
		if k == 0 {
			runtime.ReadMemStats(&ms1)
			alloc += ms1.TotalAlloc - ms0.TotalAlloc
			own += b.attempted - before
		}
	}
	return float64(alloc) / 1e6 / float64(own)
}
