package main

// The answer oracle: a check of every layout the program returns that
// does not trust the program's own selection machinery.  It rebuilds
// the data layout graph from the Result alone — node costs from the
// candidates' estimated costs, edge costs from remap.Cost times the
// edge frequency over the arrays live into the edge's target — and
// then checks the answer against this benchmark's own exact dynamic
// program, against every single-phase change, against every static
// layout, and against Result.Certify.

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/core"
	"repro/internal/remap"
)

// relTol is the relative tolerance of every cost comparison: the
// program and the oracle sum the same terms in different orders.
const relTol = 1e-9

// ograph is the oracle's own copy of the layout graph.
type ograph struct {
	node  [][]float64 // node[p][i]: cost of candidate i of phase p
	edges []oedge
	inc   [][]int // inc[p]: indexes into edges of the edges touching p
}

type oedge struct {
	from, to int
	cost     [][]float64 // cost[i][j], frequency-weighted
}

// rebuildGraph derives the layout graph from the Result's candidates,
// control-flow edges and live sets.
func rebuildGraph(res *core.Result) *ograph {
	g := &ograph{node: make([][]float64, len(res.Phases)), inc: make([][]int, len(res.Phases))}
	for p, pr := range res.Phases {
		g.node[p] = make([]float64, len(pr.Candidates))
		for i, c := range pr.Candidates {
			g.node[p][i] = c.Cost
		}
	}
	for _, e := range res.PCFG.Edges {
		names := make([]string, 0, len(res.LiveIn[e.To]))
		for a := range res.LiveIn[e.To] {
			names = append(names, a)
		}
		sort.Strings(names)
		from, to := res.Phases[e.From].Candidates, res.Phases[e.To].Candidates
		oe := oedge{from: e.From, to: e.To, cost: make([][]float64, len(from))}
		for i, ci := range from {
			oe.cost[i] = make([]float64, len(to))
			for j, cj := range to {
				oe.cost[i][j] = remap.Cost(ci.Layout, cj.Layout, res.Unit.Arrays, names, res.Machine) * e.Freq
			}
		}
		k := len(g.edges)
		g.edges = append(g.edges, oe)
		g.inc[e.From] = append(g.inc[e.From], k)
		if e.To != e.From {
			g.inc[e.To] = append(g.inc[e.To], k)
		}
	}
	return g
}

// cost is the whole-program cost of one choice vector.
func (g *ograph) cost(choice []int) float64 {
	total := 0.0
	for p, i := range choice {
		total += g.node[p][i]
	}
	for _, e := range g.edges {
		total += e.cost[choice[e.from]][choice[e.to]]
	}
	return total
}

// maxStates bounds the frontier DP's table.  Every workload's graph
// stays far below it (paths and rings keep one or two phases on the
// frontier), so a wider graph is an oracle failure, not a skipped
// check: optimality is never silently left undecided.
const maxStates = 1 << 16

// errTooWide reports a graph whose frontier DP table would exceed
// maxStates.
var errTooWide = fmt.Errorf("oracle: layout graph too wide for the exact DP")

// optimum is the exact minimum cost over all choice vectors, by a
// dynamic program over phases in index order whose state is the choice
// of every already-placed phase that still has an edge to a later one
// (the frontier).  On a path the frontier is one phase — the chain DP;
// on a ring it is the phase the back edge returns to plus the current
// one — the cycle DP that fixes one ring phase.
func (g *ograph) optimum() (float64, error) {
	n := len(g.node)
	last := make([]int, n) // last[v]: highest-index phase v shares an edge with
	for v := range last {
		last[v] = v
	}
	for _, e := range g.edges {
		hi := max(e.from, e.to)
		last[e.from] = max(last[e.from], hi)
		last[e.to] = max(last[e.to], hi)
	}
	// A state assigns a candidate to each frontier phase; it is
	// encoded as the frontier choices in frontier order.
	type entry struct {
		choice []int
		cost   float64
	}
	var frontier []int
	states := map[string]entry{"": {cost: 0}}
	for v := 0; v < n; v++ {
		pos := map[int]int{} // frontier phase -> index in state
		for k, u := range frontier {
			pos[u] = k
		}
		next := map[string]entry{}
		nfront := append(append([]int(nil), frontier...), v)
		// keep[k]: nfront[k] survives past v.
		var keepIdx []int
		for k, u := range nfront {
			if last[u] > v {
				keepIdx = append(keepIdx, k)
			}
		}
		for _, st := range states {
			for i := range g.node[v] {
				c := st.cost + g.node[v][i]
				full := append(append([]int(nil), st.choice...), i)
				for _, k := range g.inc[v] {
					e := g.edges[k]
					var a, b int
					switch {
					case e.from == v && e.to == v:
						a, b = i, i
					case e.from == v:
						pu, ok := pos[e.to]
						if !ok {
							continue // the other end is later: charged there
						}
						a, b = i, st.choice[pu]
					default:
						pu, ok := pos[e.from]
						if !ok {
							continue
						}
						a, b = st.choice[pu], i
					}
					c += e.cost[a][b]
				}
				kept := make([]int, len(keepIdx))
				for x, k := range keepIdx {
					kept[x] = full[k]
				}
				key := fmt.Sprint(kept)
				if old, ok := next[key]; !ok || c < old.cost {
					next[key] = entry{choice: kept, cost: c}
				}
			}
		}
		if len(next) > maxStates {
			return 0, errTooWide
		}
		frontier = frontier[:0]
		for _, k := range keepIdx {
			frontier = append(frontier, nfront[k])
		}
		states = next
	}
	best := math.Inf(1)
	for _, st := range states {
		best = math.Min(best, st.cost)
	}
	return best, nil
}

// oneOptViolation returns a description of the first single-phase
// change that lowers the cost of choice, or "" when there is none.
func (g *ograph) oneOptViolation(choice []int) string {
	for p, cur := range choice {
		for i := range g.node[p] {
			if i == cur {
				continue
			}
			delta := g.node[p][i] - g.node[p][cur]
			for _, k := range g.inc[p] {
				e := g.edges[k]
				a0, b0 := choice[e.from], choice[e.to]
				a1, b1 := a0, b0
				if e.from == p {
					a1 = i
				}
				if e.to == p {
					b1 = i
				}
				delta += e.cost[a1][b1] - e.cost[a0][b0]
			}
			if delta < -relTol*math.Max(1, g.cost(choice)) {
				return fmt.Sprintf("phase %d: candidate %d instead of %d lowers the cost by %g", p, i, cur, -delta)
			}
		}
	}
	return ""
}

// staticCosts prices every static layout: a placement (layout Key)
// offered as a candidate by every phase, used throughout.
func staticCosts(res *core.Result, g *ograph) map[string]float64 {
	idx := make([]map[string]int, len(res.Phases))
	for p, pr := range res.Phases {
		idx[p] = map[string]int{}
		for i, c := range pr.Candidates {
			if _, dup := idx[p][c.Layout.Key()]; !dup {
				idx[p][c.Layout.Key()] = i
			}
		}
	}
	out := map[string]float64{}
	if len(res.Phases) == 0 {
		return out
	}
next:
	for key := range idx[0] {
		choice := make([]int, len(res.Phases))
		for p := range res.Phases {
			i, ok := idx[p][key]
			if !ok {
				continue next
			}
			choice[p] = i
		}
		out[key] = g.cost(choice)
	}
	return out
}

// verdict is an answer the oracle accepted.
type verdict struct {
	choice []int
	cost   float64
	// simS is the simulated whole-program time of the choice, seconds.
	simS float64
}

// choiceOf reads the per-phase choice vector out of a Result.
func choiceOf(res *core.Result) []int {
	c := make([]int, len(res.Phases))
	for p, pr := range res.Phases {
		c[p] = pr.Chosen
	}
	return c
}

// closeTo compares two costs within relTol.
func closeTo(a, b float64) bool {
	return math.Abs(a-b) <= relTol*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}

// check runs every oracle test on one Result and returns the accepted
// verdict, or an error naming the first test that failed.  sim prices
// the choice on the simulator; it is a parameter so the self-test can
// skip it.
func check(res *core.Result, sim func(*core.Result, []int) (float64, error)) (verdict, error) {
	if res == nil || res.Selection == nil {
		return verdict{}, fmt.Errorf("oracle: no selection in the result")
	}
	choice := choiceOf(res)
	for p, i := range choice {
		if i < 0 || i >= len(res.Phases[p].Candidates) {
			return verdict{}, fmt.Errorf("oracle: phase %d chose candidate %d of %d", p, i, len(res.Phases[p].Candidates))
		}
	}
	g := rebuildGraph(res)
	got := g.cost(choice)
	if !closeTo(got, res.TotalCost) {
		return verdict{}, fmt.Errorf("oracle: TotalCost %v but the choice costs %v", res.TotalCost, got)
	}
	opt, err := g.optimum()
	switch {
	case err != nil:
		return verdict{}, err
	case !closeTo(got, opt) && got > opt:
		return verdict{}, fmt.Errorf("oracle: cost %v above the exact optimum %v", got, opt)
	}
	if v := g.oneOptViolation(choice); v != "" {
		return verdict{}, fmt.Errorf("oracle: not 1-opt: %s", v)
	}
	for key, sc := range staticCosts(res, g) {
		if got > sc && !closeTo(got, sc) {
			return verdict{}, fmt.Errorf("oracle: cost %v above static layout %s at %v", got, key, sc)
		}
	}
	if err := res.Certify(); err != nil {
		return verdict{}, fmt.Errorf("oracle: certify: %w", err)
	}
	v := verdict{choice: choice, cost: res.TotalCost}
	if sim != nil {
		us, err := sim(res, choice)
		if err != nil {
			return verdict{}, fmt.Errorf("oracle: simulate: %w", err)
		}
		v.simS = us / 1e6
	}
	return v, nil
}

// sameAnswer compares a Result against an accepted verdict: the same
// choice in every phase and the same total cost.
func sameAnswer(res *core.Result, v verdict) error {
	if res == nil || len(res.Phases) != len(v.choice) {
		return fmt.Errorf("oracle: answer has a different phase count than the verified one")
	}
	for p, pr := range res.Phases {
		if pr.Chosen != v.choice[p] {
			return fmt.Errorf("oracle: phase %d chose %d, verified answer chose %d", p, pr.Chosen, v.choice[p])
		}
	}
	if !closeTo(res.TotalCost, v.cost) {
		return fmt.Errorf("oracle: cost %v, verified answer costs %v", res.TotalCost, v.cost)
	}
	return nil
}
