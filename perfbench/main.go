// Command perfbench is the repository's benchmark. It runs one of two
// closed-loop workloads from a single client over the program's public
// API at default settings, checks every op's output against reference
// outputs, and prints one JSON result line. Each workload gives most of
// its time to its own op and samples the others, so that every metric
// is reported on both:
//
//	replan        the planner: cold, warm (shifted) and plan-cache-hit rounds
//	pipeline-sim  the simulator: Execute of six prebuilt plans
//
// The third op, one experiments.ClusterSweep of the whole fleet, takes a
// share of both.
//
// With -trace 1 it reports per-layer metrics instead, timed from the
// benchmark's own calls into each layer; see NOTES.md. Run it through
// run.py, which builds it from source:
//
//	python3 perfbench/run.py --workload replan --seed 1 --seconds 40 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"
)

// heldOutSeed is reserved for confirming a claimed gain: use it only
// after the change is written, never while tuning.
const heldOutSeed = 9001

var workloads = []string{"replan", "pipeline-sim"}

type options struct {
	workload   string
	seed       int64  // workload synthesis: round mix, hit choice and execution order
	shiftSeed  int64  // shift sequence: the order each replan cycle shifts to the list lengths
	jobSeed    int64  // fleet job trace
	clusterRef string // the committed fleet report, BENCH_cluster.json
	seconds    float64
	trace      bool
	traceOut   string
	commit     string
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// run executes one benchmark run: set-up, repeated sz.setups times,
// then the workload's loop until the deadline, then (traced runs only)
// a traced fleet op.
func run(opt options, sz sizes) (*result, map[string]any, error) {
	known := false
	for _, w := range workloads {
		known = known || w == opt.workload
	}
	if !known {
		return nil, nil, fmt.Errorf("unknown workload %q (want one of %v)", opt.workload, workloads)
	}
	b := newBench(opt, sz)
	var setups []float64
	for i := 0; i < sz.setups; i++ {
		t0 := time.Now()
		if err := b.setup(); err != nil {
			return nil, nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}

	deadline := time.Now().Add(time.Duration(opt.seconds * float64(time.Second)))
	allocPerOp := b.loop(deadline)
	if b.tr != nil {
		// After the loop, whose first sweep set the fleet references.
		b.check(b.tracedFleetOp())
	}

	res := &result{Correct: b.failed == 0, Attempted: b.attempted, Failed: b.failed}
	if b.tr != nil {
		res.Metrics = b.perLayer()
	} else {
		res.Metrics = b.endToEnd(median(setups), allocPerOp)
	}
	ops := map[string]int{}
	for k, v := range b.times {
		ops[k] = len(v)
	}
	stamp := map[string]any{
		"workload":           opt.workload,
		"seed":               opt.seed,
		"shift_seed":         opt.shiftSeed,
		"job_seed":           opt.jobSeed,
		"held_out_seed":      heldOutSeed,
		"seconds":            opt.seconds,
		"trace":              opt.trace,
		"gomaxprocs":         runtime.GOMAXPROCS(0),
		"nproc":              runtime.NumCPU(),
		"go":                 runtime.Version(),
		"commit":             opt.commit,
		"ops":                ops,
		"failures":           b.failures,
		"replica_mismatches": b.layers.mismatches,
	}
	if b.tr != nil && opt.traceOut != "" {
		if err := b.tr.write(opt.traceOut, stamp); err != nil {
			return nil, nil, fmt.Errorf("writing spans: %w", err)
		}
	}
	return res, stamp, nil
}

func main() {
	var opt options
	var trace int
	flag.StringVar(&opt.workload, "workload", "", fmt.Sprintf("workload to run: %v", workloads))
	flag.Int64Var(&opt.seed, "seed", 1, "workload-synthesis seed")
	flag.Int64Var(&opt.shiftSeed, "shift-seed", -1, "shift-sequence seed (default: -seed)")
	flag.Int64Var(&opt.jobSeed, "job-seed", 1, "fleet job-trace seed, at least 1 (1 is BENCH_cluster.json's)")
	flag.StringVar(&opt.clusterRef, "cluster-ref", "BENCH_cluster.json", "committed fleet report; a sweep at its configuration must match its digests")
	flag.Float64Var(&opt.seconds, "seconds", 10, "how long the workload loop measures")
	flag.IntVar(&trace, "trace", 0, "1 reports per-layer metrics from a traced run")
	flag.StringVar(&opt.traceOut, "trace-out", "", "file the traced run's spans are written to")
	flag.StringVar(&opt.commit, "commit", "unknown", "source revision, for the result stamp")
	flag.Parse()
	if trace != 0 && trace != 1 {
		fmt.Fprintf(os.Stderr, "perfbench: -trace must be 0 or 1, got %d\n", trace)
		os.Exit(2)
	}
	opt.trace = trace == 1
	if opt.jobSeed < 1 {
		// ClusterSweep would read 0 as its default seed and run a trace
		// other than the one the stamp names.
		fmt.Fprintf(os.Stderr, "perfbench: -job-seed must be at least 1, got %d\n", opt.jobSeed)
		os.Exit(2)
	}
	if opt.shiftSeed == -1 {
		opt.shiftSeed = opt.seed
	}
	res, stamp, err := run(opt, fullSizes(opt.jobSeed))
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	env, _ := json.Marshal(stamp) // maps of basic values always marshal
	fmt.Printf("env %s\n", env)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: encoding result: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}
