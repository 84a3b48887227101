// Package milp solves the horizontal-fusion integer program of RAP §6.2
// (the role Gurobi plays in the paper's artifact).
//
// The formulation: N preprocessing operations are assigned to time steps
// through a binary matrix F where F[i][t]=1 means op i executes at step
// t. Constraints: every op takes exactly one step (Eq. 1) and an op
// executes strictly after everything it depends on (Eq. 2). Operations
// of the same type assigned to the same step fuse into one kernel, and
// the objective maximizes Σ_type Σ_t (Σ_{i∈type} F[i][t])² — the sum of
// squared fusion degrees (Eqs. 3-4).
//
// The solver is an exact branch & bound over step assignments in
// topological order with an admissible clustering bound, warm-started by
// the level-greedy solution (fuse same-type ops sharing an ASAP level,
// always feasible since equal levels imply incomparability). Within the
// configured horizon the result is provably optimal; if the node budget
// is exhausted the incumbent is returned with Optimal=false — mirroring
// how a time-limited MILP solver behaves. The search is single-threaded;
// DESIGN.md §8 records why.
package milp

import (
	"errors"
	"fmt"
)

// Problem is one fusion MILP instance.
type Problem struct {
	// Types assigns each op a fusion group id (the operator type); ops
	// may only fuse within a type.
	Types []int
	// Deps lists, per op, the ops it depends on (Eq. 2 pairs).
	Deps [][]int
	// Horizon bounds the number of time steps explored. 0 selects
	// critical-path length + DefaultSlack, which is enough for every
	// plan in this repo and keeps the search exact. A positive horizon
	// below the critical-path length is infeasible and rejected with
	// ErrInfeasibleHorizon.
	Horizon int
	// MaxNodes bounds the branch & bound search (0 = DefaultMaxNodes).
	MaxNodes int
}

// ErrInfeasibleHorizon reports a caller-set Horizon smaller than the
// dependency critical path: no feasible step assignment exists within
// it. (Solve used to silently widen the horizon and then claim
// Optimal=true for a horizon the caller never asked for.)
var ErrInfeasibleHorizon = errors.New("milp: horizon below dependency critical path")

// DefaultSlack is the extra horizon beyond the critical path explored by
// default. Delaying an op past its ASAP level is exactly what lets
// conflicting fusion chains resolve (see TestSolveBeatsGreedy).
const DefaultSlack = 3

// DefaultMaxNodes is the default search-node budget.
const DefaultMaxNodes = 2_000_000

// Solution is the solver output.
type Solution struct {
	// Step[i] is the time step of op i.
	Step []int
	// Objective is Σ_type Σ_t degree², the fusion objective value.
	Objective int64
	// Optimal reports whether the search completed within budget.
	Optimal bool
	// Nodes is the number of branch & bound nodes explored.
	Nodes int
}

// Objective evaluates the fusion objective for a step assignment.
func Objective(types, steps []int) int64 {
	counts := map[[2]int]int64{}
	for i, ty := range types {
		counts[[2]int{ty, steps[i]}]++
	}
	var obj int64
	for _, c := range counts {
		obj += c * c
	}
	return obj
}

// Validate checks a step assignment against the problem constraints
// (Eq. 1 is implicit in the representation; Eq. 2 is the ordering).
func Validate(p Problem, steps []int) error {
	if len(steps) != len(p.Types) {
		return fmt.Errorf("milp: %d steps for %d ops", len(steps), len(p.Types))
	}
	for i, s := range steps {
		if s < 0 {
			return fmt.Errorf("milp: op %d at negative step %d", i, s)
		}
		for _, d := range p.Deps[i] {
			if steps[d] >= s {
				return fmt.Errorf("milp: op %d (step %d) does not follow its dependency %d (step %d)",
					i, s, d, steps[d])
			}
		}
	}
	return nil
}

// topoOrder returns a topological order of the dependency DAG.
func topoOrder(deps [][]int) ([]int, error) {
	n := len(deps)
	indeg := make([]int, n)
	children := make([][]int, n)
	for i, ds := range deps {
		for _, d := range ds {
			if d < 0 || d >= n {
				return nil, fmt.Errorf("milp: op %d depends on unknown op %d", i, d)
			}
			indeg[i]++
			children[d] = append(children[d], i)
		}
	}
	var queue, order []int
	for i := 0; i < n; i++ {
		if indeg[i] == 0 {
			queue = append(queue, i)
		}
	}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		order = append(order, v)
		for _, c := range children[v] {
			indeg[c]--
			if indeg[c] == 0 {
				queue = append(queue, c)
			}
		}
	}
	if len(order) != n {
		return nil, fmt.Errorf("milp: dependency cycle")
	}
	return order, nil
}

// asapLevels computes each op's earliest step.
func asapLevels(deps [][]int, order []int) []int {
	levels := make([]int, len(deps))
	for _, i := range order {
		for _, d := range deps[i] {
			if levels[d]+1 > levels[i] {
				levels[i] = levels[d] + 1
			}
		}
	}
	return levels
}

// GreedyLevels returns the warm-start solution: every op at its ASAP
// level. Ops of one type sharing a level are incomparable (a dependency
// path strictly increases the level), so this is always feasible.
//
//rap:deterministic
func GreedyLevels(p Problem) (Solution, error) {
	if err := checkShape(p); err != nil {
		return Solution{}, err
	}
	order, err := topoOrder(p.Deps)
	if err != nil {
		return Solution{}, err
	}
	steps := asapLevels(p.Deps, order)
	return Solution{Step: steps, Objective: Objective(p.Types, steps), Optimal: false}, nil
}

func checkShape(p Problem) error {
	if len(p.Types) != len(p.Deps) {
		return fmt.Errorf("milp: %d types for %d dep lists", len(p.Types), len(p.Deps))
	}
	return nil
}

// newSolver validates the problem and builds the search state: its
// topological order, the resolved horizon and node budget, the greedy
// warm start as the incumbent, and the per-position remaining same-type
// op counts used by the admissible bound.
func newSolver(p Problem) (*solver, error) {
	if err := checkShape(p); err != nil {
		return nil, err
	}
	n := len(p.Types)
	order, err := topoOrder(p.Deps)
	if err != nil {
		return nil, err
	}
	asap := asapLevels(p.Deps, order)
	cp := 0
	for _, l := range asap {
		if l+1 > cp {
			cp = l + 1
		}
	}
	if p.Horizon > 0 && p.Horizon < cp {
		return nil, fmt.Errorf("milp: horizon %d cannot hold the %d-step critical path: %w",
			p.Horizon, cp, ErrInfeasibleHorizon)
	}
	horizon := p.Horizon
	if horizon <= 0 {
		horizon = cp + DefaultSlack
	}
	maxNodes := p.MaxNodes
	if maxNodes <= 0 {
		maxNodes = DefaultMaxNodes
	}
	// The search indexes its state by a dense type id, 0..numTypes-1,
	// in order of first appearance.
	denseOf := map[int]int{}
	ty := make([]int, n)
	for i, t := range p.Types {
		d, ok := denseOf[t]
		if !ok {
			d = len(denseOf)
			denseOf[t] = d
		}
		ty[i] = d
	}
	numTypes := len(denseOf)
	// Remaining same-type op counts from each position in the topo
	// order, for the admissible bound: position k lists the types with
	// ops left at k or later.
	remaining := make([][]typeCount, n+1)
	left := make([]int64, numTypes)
	for k := n - 1; k >= 0; k-- {
		left[ty[order[k]]]++
		for t, c := range left {
			if c > 0 {
				remaining[k] = append(remaining[k], typeCount{ty: t, n: c})
			}
		}
	}
	cands := make([][]int, n)
	for k := range cands {
		cands[k] = make([]int, 0, horizon)
	}
	return &solver{
		p: p, ty: ty, order: order, horizon: horizon, maxNodes: maxNodes,
		remaining: remaining,
		cands:     cands,
		steps:     make([]int, n),
		counts:    make([]int64, numTypes*horizon),
		maxCount:  make([]int64, numTypes),
		// The ASAP levels are the greedy warm start (see GreedyLevels).
		bestObj: Objective(p.Types, asap),
		best:    asap,
		optimal: true,
	}, nil
}

// Solve runs the branch & bound, warm-started by GreedyLevels.
//
//rap:deterministic
func Solve(p Problem) (Solution, error) {
	s, err := newSolver(p)
	if err != nil {
		return Solution{}, err
	}
	if len(p.Types) == 0 {
		return Solution{Step: []int{}, Optimal: true}, nil
	}
	s.dfs(0, 0)
	return Solution{Step: s.best, Objective: s.bestObj, Optimal: s.optimal, Nodes: s.nodes}, nil
}

type solver struct {
	p         Problem
	ty        []int // op -> dense type id
	order     []int
	horizon   int
	maxNodes  int
	nodes     int
	remaining [][]typeCount
	cands     [][]int // per position: the candidate-step buffer

	steps    []int
	counts   []int64 // dense type*horizon + step -> fusion degree
	maxCount []int64 // dense type -> max degree so far (for the bound)

	best    []int
	bestObj int64
	optimal bool
}

// typeCount is how many ops of dense type ty remain to be placed.
type typeCount struct {
	ty int
	n  int64
}

// bound returns an admissible upper bound on the objective reachable
// from position k with current partial objective obj: every remaining op
// of a type could, at best, join that type's largest group.
func (s *solver) bound(k int, obj int64) int64 {
	b := obj
	for _, tc := range s.remaining[k] {
		g := s.maxCount[tc.ty]
		b += (g+tc.n)*(g+tc.n) - g*g
	}
	return b
}

func (s *solver) dfs(k int, obj int64) {
	if s.nodes >= s.maxNodes {
		s.optimal = false
		return
	}
	s.nodes++
	if k == len(s.order) {
		if obj > s.bestObj {
			s.bestObj = obj
			copy(s.best, s.steps)
		}
		return
	}
	if s.bound(k, obj) <= s.bestObj {
		return
	}
	op := s.order[k]
	minStep := 0
	for _, d := range s.p.Deps[op] {
		if s.steps[d]+1 > minStep {
			minStep = s.steps[d] + 1
		}
	}
	if minStep >= s.horizon {
		return // infeasible branch under this horizon
	}
	ty := s.ty[op]
	counts := s.counts[ty*s.horizon : (ty+1)*s.horizon]

	// Candidate steps, most promising first: join the largest existing
	// same-type group, then earliest-first. The steps arrive in
	// ascending order, so a stable insertion sort on the degree alone
	// gives that order.
	cands := s.cands[k][:0]
	for t := minStep; t < s.horizon; t++ {
		i := len(cands)
		cands = append(cands, t)
		for ; i > 0 && counts[cands[i-1]] < counts[t]; i-- {
			cands[i] = cands[i-1]
		}
		cands[i] = t
	}

	for _, t := range cands {
		c := counts[t]
		delta := (c+1)*(c+1) - c*c
		counts[t] = c + 1
		prevMax := s.maxCount[ty]
		if c+1 > prevMax {
			s.maxCount[ty] = c + 1
		}
		s.steps[op] = t
		s.dfs(k+1, obj+delta)
		counts[t] = c
		s.maxCount[ty] = prevMax
		if s.nodes >= s.maxNodes {
			s.optimal = false
			return
		}
	}
}
