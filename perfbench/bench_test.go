package main

import (
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"testing"
	"time"

	"rap/internal/rap"
)

// declared reads the metric names and units BENCHMARK.json promises.
func declared(t *testing.T) (endToEnd, perLayer map[string]string) {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if strings.Join(names, ",") != strings.Join(workloads, ",") {
		t.Fatalf("BENCHMARK.json workloads %v, program runs %v", names, workloads)
	}
	endToEnd, perLayer = map[string]string{}, map[string]string{}
	for _, m := range spec.EndToEnd {
		endToEnd[m.Name] = m.Unit
	}
	for _, m := range spec.PerLayer {
		perLayer[m.Name] = m.Unit
	}
	return endToEnd, perLayer
}

func shortOptions(workload string, seed int64, trace bool) options {
	return options{workload: workload, seed: seed, shiftSeed: seed, jobSeed: 1, trace: trace, clusterRef: "../BENCH_cluster.json"}
}

// TestShortRunReportsEveryMetric runs every workload, untraced and
// traced, in short mode and checks that each declared metric is
// reported, with its unit, and that no op failed. Each workload runs
// with its own seed; the simulated-time metrics must not move with it.
func TestShortRunReportsEveryMetric(t *testing.T) {
	endToEnd, perLayer := declared(t)
	exact := map[string]float64{}
	for k, w := range workloads {
		for _, trace := range []bool{false, true} {
			want := endToEnd
			if trace {
				want = perLayer
			}
			res, _, err := run(shortOptions(w, int64(7+k), trace), shortSizes(1))
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", w, trace, res.Correct, res.Attempted, res.Failed)
			}
			for name, unit := range want {
				m, ok := res.Metrics[name]
				if !ok {
					t.Errorf("%s trace=%v: metric %s missing", w, trace, name)
					continue
				}
				if m.Unit != unit {
					t.Errorf("%s trace=%v: metric %s has unit %q, want %q", w, trace, name, m.Unit, unit)
				}
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics reported, %d declared", w, trace, len(res.Metrics), len(want))
			}
			if trace {
				continue
			}
			for _, name := range []string{"sim_samples_per_s", "fleet_avg_jct_s"} {
				v := res.Metrics[name].Value
				if prev, ok := exact[name]; ok && v != prev {
					t.Errorf("%s: %s = %v, another seed gave %v", w, name, v, prev)
				}
				exact[name] = v
			}
		}
	}
}

// TestCorruptedReferenceFailsOp checks that an op whose output differs
// from the reference counts as failed, for every kind of check, and that
// a set-up that differs from the first one is an error.
func TestCorruptedReferenceFailsOp(t *testing.T) {
	b := newBench(shortOptions("replan", 7, false), shortSizes(1))
	if err := b.setup(); err != nil {
		t.Fatal(err)
	}
	if b.failed != 0 {
		t.Fatalf("set-up failed ops: %v", b.failures)
	}
	corrupt := []struct {
		name  string
		spoil func()
		op    func() error
	}{
		{"plan hash", func() {
			b.refHash[0][b.base[0].Plan.AvgListLen] = "0000"
		}, func() error { return b.coldRound(b.newCycle()) }},
		{"execute digest", func() { b.refDigest[len(b.refDigest)-1] = "0000" }, func() error { return b.executeRound(false) }},
		{"fleet digest", func() { b.fleetRef["first-fit"] = "0000" }, b.fleetOp},
	}
	for _, c := range corrupt {
		before := b.failed
		b.check(c.op())
		if b.failed != before {
			t.Fatalf("%s: op failed before corruption: %v", c.name, b.failures)
		}
		c.spoil()
		b.check(c.op())
		if b.failed != before+1 {
			t.Errorf("%s: corrupted reference did not fail the op", c.name)
		}
	}
	// A repeated set-up must reproduce the first one's references.
	if err := b.setup(); err == nil {
		t.Error("a set-up that disagrees with the first one's references did not fail")
	}
}

// TestShiftSequenceFollowsShiftSeed checks that the order in which the
// cycles shift to the list lengths depends on the shift seed alone.
func TestShiftSequenceFollowsShiftSeed(t *testing.T) {
	sequence := func(seed, shiftSeed int64) [][]float64 {
		opt := shortOptions("replan", seed, false)
		opt.shiftSeed = shiftSeed
		b := newBench(opt, fullSizes(1))
		for i, s := range benchShapes {
			w, err := rap.NewWorkload(s.ds, s.planIdx, s.batch, 1)
			if err != nil {
				t.Fatal(err)
			}
			b.base = append(b.base, w)
			b.pool = append(b.pool, []float64{float64(i), 10, 11, 12, 13, 14})
		}
		var seq [][]float64
		for k := 0; k < 3; k++ {
			seq = append(seq, b.newCycle().unplanned...)
		}
		return seq
	}
	same := func(x, y [][]float64) bool { return fmt.Sprint(x) == fmt.Sprint(y) }
	if !same(sequence(1, 5), sequence(2, 5)) {
		t.Error("the workload seed changed the shift sequence")
	}
	if same(sequence(1, 5), sequence(1, 6)) {
		t.Error("the shift seed did not change the shift sequence")
	}
}

// TestTracedFleetDefaultSeed runs the traced fleet op with job seed 0,
// which ClusterSweep reads as its default seed: the traced op must
// replay the same trace, or its digests would not match.
func TestTracedFleetDefaultSeed(t *testing.T) {
	sz := shortSizes(0)
	res, stamp, err := run(shortOptions("pipeline-sim", 7, true), sz)
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed != 0 {
		t.Errorf("failed ops at job seed 0: %v", stamp["failures"])
	}
}

// TestWarmPlanEqualsColdPlan backs the replan references: a plan rebuilt
// on warm memos must equal a cold build at the same list length, or
// warm rounds could not be checked against one another.
func TestWarmPlanEqualsColdPlan(t *testing.T) {
	s := benchShapes[4] // plan 2: budget-truncated MILPs
	w, err := rap.NewWorkload(s.ds, s.planIdx, s.batch, 1)
	if err != nil {
		t.Fatal(err)
	}
	warm := rap.New(w, clusterFor(s))
	if _, err := warm.BuildPlan(rap.BuildOptions{}); err != nil {
		t.Fatal(err)
	}
	const l = 9.5
	pw, err := warm.AdaptToShift(l, rap.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	pc, err := rap.New(w.WithListLen(l), clusterFor(s)).BuildPlan(rap.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	hw, _ := planHash(pw)
	hc, _ := planHash(pc)
	if hw != hc {
		t.Errorf("warm plan %s differs from cold plan %s", hw, hc)
	}
}

func TestSelfTimeSubtractsChildUnion(t *testing.T) {
	tr := newTracer()
	tr.spans = []span{
		{Name: "parent", Parent: -1, Start: 0, End: 100},
		{Name: "a", Parent: 0, Start: 10, End: 40},
		{Name: "b", Parent: 0, Start: 30, End: 60}, // overlaps a
		{Name: "c", Parent: 0, Start: 90, End: 120},
	}
	self := tr.selfTimes()
	want := []time.Duration{100 - 50 - 10, 30, 30, 30}
	for i := range want {
		if self[i] != want[i] {
			t.Errorf("span %s: self %v, want %v", tr.spans[i].Name, self[i], want[i])
		}
	}
}
