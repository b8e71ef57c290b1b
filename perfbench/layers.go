package main

// The layer replay of the traced run: one input is driven through the
// public functions of each layer in pipeline order — the same sequence
// core.Analyze runs — with a span around every layer.  The replay must
// reach the same choice and cost as core.Analyze on the same input.

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"time"

	"repro/internal/align"
	"repro/internal/artifact"
	"repro/internal/compmodel"
	"repro/internal/core"
	"repro/internal/dep"
	"repro/internal/distrib"
	"repro/internal/execmodel"
	"repro/internal/experiments"
	"repro/internal/fortran"
	"repro/internal/ilp"
	"repro/internal/layout"
	"repro/internal/layoutgraph"
	"repro/internal/machine"
	"repro/internal/pcfg"
	"repro/internal/remap"
	"repro/internal/stage"
)

// perLayer lists every per-layer metric: name, unit and better
// direction, in the order BENCHMARK.json lists them.
var perLayer = []struct{ name, unit, better string }{
	{"fortran.parse_ms", "ms", "lower"},
	{"fortran.lex_mb_s", "MB/s", "higher"},
	{"fortran.parse_allocs", "count", "lower"},
	{"artifact.unitkey_ms", "ms", "lower"},
	{"artifact.phasekey_ms", "ms", "lower"},
	{"pcfg.build_ms", "ms", "lower"},
	{"dep.analyze_ms", "ms", "lower"},
	{"align.spaces_ms", "ms", "lower"},
	{"align.resolutions", "count", "lower"},
	{"align.lp_pivots", "count", "lower"},
	{"distrib.space_ms", "ms", "lower"},
	{"distrib.candidates", "count", "lower"},
	{"pricing.ms", "ms", "lower"},
	{"pricing.evals", "count", "lower"},
	{"remap.cost_ms", "ms", "lower"},
	{"remap.evals", "count", "lower"},
	{"remap.duplicate_evals", "count", "lower"},
	{"layoutgraph.select_ms", "ms", "lower"},
	{"layoutgraph.tree_dp_solves", "count", "higher"},
	{"layoutgraph.ilp_solves", "count", "lower"},
	{"ilp.nodes", "count", "lower"},
	{"ilp.presolved", "count", "higher"},
	{"lp.pivots", "count", "lower"},
	{"lp.sparse_solves", "count", "lower"},
	{"lp.us_per_pivot", "us", "lower"},
	{"core.stage.parse_ms", "ms", "lower"},
	{"core.stage.dep_ms", "ms", "lower"},
	{"core.stage.align-solve_ms", "ms", "lower"},
	{"core.stage.space-build_ms", "ms", "lower"},
	{"core.stage.pricing_ms", "ms", "lower"},
	{"core.stage.selection_ms", "ms", "lower"},
	{"core.unattributed_ms", "ms", "lower"},
	{"core.l1_pricing_hit_ratio", "ratio", "higher"},
	{"core.l1_remap_hit_ratio", "ratio", "higher"},
	{"core.l2_pricing_hit_ratio", "ratio", "higher"},
	{"core.l2_selection_hits", "count", "higher"},
	{"core.update_ms", "ms", "lower"},
	{"core.reuse_ratio", "ratio", "higher"},
	{"core.replayed_phases", "count", "lower"},
	{"store.open_ms", "ms", "lower"},
	{"store.hits", "count", "higher"},
	{"store.misses", "count", "lower"},
	{"store.writes", "count", "lower"},
	{"store.excess_reported_writes", "count", "lower"},
	{"service.handler_ms_p50", "ms", "lower"},
	{"service.wire_ms_p50", "ms", "lower"},
	{"service.dedup", "count", "higher"},
	{"service.sessions", "count", "lower"},
	{"service.rejected", "count", "lower"},
	{"runtime.gc_cycles_per_op", "count", "lower"},
	{"runtime.gc_pause_ms_per_op", "ms", "lower"},
	{"sim.measure_ms", "ms", "lower"},
	{"trace.overhead_pct", "%", "lower"},
}

// coreStages are the stage names Result.StageTimes reports.
var coreStages = []string{stage.Parse, stage.Dep, stage.AlignSolve, stage.SpaceBuild, stage.Pricing, stage.Selection}

// replay drives src through the layers at procs and records spans under
// the tracer and samples into ls.  It returns an error when a layer
// fails or the replay's answer differs from core.Analyze's.
func replay(ctx context.Context, tr *tracer, ls *layerStats, src string, procs int) error {
	root := tr.begin("replay", 0)
	defer tr.end(root)
	timedSpan := func(name, metric string, f func() error) error {
		id := tr.begin(name, root)
		t0 := time.Now()
		err := f()
		ls.sample(metric, float64(time.Since(t0))/1e6)
		tr.end(id)
		return err
	}

	// fortran: lex, then parse + semantic analysis.
	if err := timedSpan("fortran.lex", "fortran.lex_ms", func() error {
		_, err := fortran.Lex(src)
		return err
	}); err != nil {
		return err
	}
	ls.sample("fortran.lex_mb_s", float64(len(src))/1e6/(ls.last("fortran.lex_ms")/1e3))
	var u *fortran.Unit
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if err := timedSpan("fortran.parse", "fortran.parse_ms", func() error {
		prog, err := fortran.Parse(src)
		if err != nil {
			return err
		}
		u, err = fortran.Analyze(prog)
		return err
	}); err != nil {
		return err
	}
	runtime.ReadMemStats(&after)
	ls.add("fortran.parse_allocs", float64(after.Mallocs-before.Mallocs))
	if len(u.Distributes) > 0 || len(u.Aligns) > 0 {
		return fmt.Errorf("replay: user directives are not replayed")
	}

	// artifact: whole-unit keys, then per-phase keys.
	var decls artifact.Key
	_ = timedSpan("artifact.unitkey", "artifact.unitkey_ms", func() error {
		artifact.UnitKey(u)
		decls = artifact.DeclsKey(u)
		return nil
	})
	var g *pcfg.Graph
	if err := timedSpan("pcfg.build", "pcfg.build_ms", func() (err error) {
		g, err = pcfg.Build(u, pcfg.Options{})
		return err
	}); err != nil {
		return err
	}
	_ = timedSpan("artifact.phasekey", "artifact.phasekey_ms", func() error {
		for _, ph := range g.Phases {
			artifact.PhaseKeyFrom(decls, fortran.PrintStmts(ph.Stmts()))
		}
		return nil
	})

	// dep: per-phase dependence analysis (core's DefaultTrip default).
	const defaultTrip = 100
	infos := map[int]*dep.PhaseInfo{}
	_ = timedSpan("dep.analyze", "dep.analyze_ms", func() error {
		for _, ph := range g.Phases {
			infos[ph.ID] = dep.Analyze(u, ph.Stmts(), defaultTrip)
		}
		return nil
	})

	// align/cag: alignment search spaces with their 0-1 resolutions,
	// then every candidate alignment completed with canonical
	// embeddings.
	solver := &ilp.Solver{Context: ctx}
	var spaces *align.Spaces
	if err := timedSpan("align.spaces", "align.spaces_ms", func() (err error) {
		spaces, err = align.BuildSearchSpaces(ctx, u, g, infos, align.Options{Solver: solver, Workers: runtime.NumCPU()})
		if err != nil {
			return err
		}
		for _, ph := range g.Phases {
			for _, ac := range spaces.PerPhase[ph.ID] {
				completeAlignment(u, ac.Align)
			}
		}
		return nil
	}); err != nil {
		return err
	}
	var alignPivots, alignNodes, alignPresolved, alignSparse int
	var alignDur time.Duration
	for _, st := range spaces.Stats {
		alignPivots += st.LPPivots
		alignNodes += st.BBNodes
		alignPresolved += st.Presolved
		alignSparse += st.LPSparse
		alignDur += st.Duration
	}
	ls.add("align.resolutions", float64(len(spaces.Stats)))
	ls.add("align.lp_pivots", float64(alignPivots))

	// distrib: candidate spaces per phase.
	tmpl := layout.Template{Extents: u.TemplateExtents()}
	cands := make([][]*layout.Layout, len(g.Phases))
	_ = timedSpan("distrib.space", "distrib.space_ms", func() error {
		for i, ph := range g.Phases {
			for _, pl := range distrib.BuildSpace(tmpl, spaces.PerPhase[ph.ID], distrib.Options{Procs: procs}) {
				cands[i] = append(cands[i], pl.Layout)
			}
		}
		return nil
	})
	total := 0
	for _, c := range cands {
		total += len(c)
	}
	ls.add("distrib.candidates", float64(total))

	// compmodel/execmodel: price every candidate, memoized by (phase
	// computation, exact layout) as the program's per-run cache is.
	m := machine.IPSC860()
	nodeCost := make([][]float64, len(g.Phases))
	_ = timedSpan("pricing", "pricing.ms", func() error {
		memo := map[[2]string]float64{}
		for i, ph := range g.Phases {
			sig := fortran.PrintStmts(ph.Stmts())
			dt := widestType(u, ph)
			for _, l := range cands[i] {
				k := [2]string{sig, l.FullKey()}
				t, ok := memo[k]
				if !ok {
					plan := compmodel.Analyze(u, infos[ph.ID], l, compmodel.Options{})
					t = execmodel.Evaluate(plan, dt, m, compmodel.Options{}).Time
					memo[k] = t
				}
				nodeCost[i] = append(nodeCost[i], t*ph.Freq)
			}
		}
		return nil
	})

	// remap: transition matrices over the arrays live into each edge.
	live := liveIn(g, infos)
	var edges []*layoutgraph.Edge
	_ = timedSpan("remap.cost", "remap.cost_ms", func() error {
		for _, e := range g.Edges {
			names := sortedNames(live[e.To])
			le := &layoutgraph.Edge{FromPhase: e.From, ToPhase: e.To, Cost: make([][]float64, len(cands[e.From]))}
			for i, ci := range cands[e.From] {
				le.Cost[i] = make([]float64, len(cands[e.To]))
				for j, cj := range cands[e.To] {
					le.Cost[i][j] = remap.Cost(ci, cj, u.Arrays, names, m) * e.Freq
				}
			}
			edges = append(edges, le)
		}
		return nil
	})

	// layoutgraph/ilp/lp: the routed selection solve.
	var sel *layoutgraph.Selection
	if err := timedSpan("layoutgraph.select", "layoutgraph.select_ms", func() (err error) {
		lg := &layoutgraph.Graph{NodeCost: nodeCost, Edges: edges}
		sel, err = lg.SolveAuto(solver)
		return err
	}); err != nil {
		return err
	}
	if sel.Solver == "tree-dp" {
		ls.add("layoutgraph.tree_dp_solves", 1)
		ls.add("layoutgraph.ilp_solves", 0)
	} else {
		ls.add("layoutgraph.tree_dp_solves", 0)
		ls.add("layoutgraph.ilp_solves", 1)
	}
	pivots := alignPivots + sel.LPPivots
	ls.add("ilp.nodes", float64(alignNodes+sel.BBNodes))
	ls.add("ilp.presolved", float64(alignPresolved+sel.Presolved))
	ls.add("lp.pivots", float64(pivots))
	ls.add("lp.sparse_solves", float64(alignSparse+sel.LPSparse))
	if pivots > 0 {
		ilpDur := alignDur
		if sel.Solver != "tree-dp" {
			ilpDur += sel.Duration
		}
		ls.sample("lp.us_per_pivot", float64(ilpDur)/1e3/float64(pivots))
	}

	// The program's own run of the same input, for the comparison, the
	// stage breakdown and the evaluation counts.
	res, err := analyzeCold(ctx, src, procs, 0)
	if err != nil {
		return err
	}
	recordStages(ls, res)
	ls.add("pricing.evals", float64(res.Cache.Pricing.Misses))
	ls.add("remap.evals", float64(res.Cache.Remap.Misses))
	serial, err := analyzeCold(ctx, src, procs, 1)
	if err != nil {
		return err
	}
	ls.add("remap.duplicate_evals", float64(res.Cache.Remap.Misses-serial.Cache.Remap.Misses))
	choice := choiceOf(res)
	for p := range choice {
		if sel.Choice[p] != choice[p] {
			return fmt.Errorf("replay: phase %d: layers chose %d, core.Analyze chose %d", p, sel.Choice[p], choice[p])
		}
	}
	if !closeTo(sel.Cost, res.TotalCost) {
		return fmt.Errorf("replay: layers cost %v, core.Analyze cost %v", sel.Cost, res.TotalCost)
	}
	// sim/spmd: the simulator behind layout_sim_s.
	return timedSpan("sim.measure", "sim.measure_ms", func() error {
		_, err := experiments.Measure(res, choice)
		return err
	})
}

// last is the most recent sample of name.
func (ls *layerStats) last(name string) float64 {
	ls.mu.Lock()
	defer ls.mu.Unlock()
	s := ls.samples[name]
	return s[len(s)-1]
}

// recordStages samples a Result's stage breakdown and the wall time no
// stage accounts for.
func recordStages(ls *layerStats, res *core.Result) {
	var sum time.Duration
	for _, st := range coreStages {
		d := res.StageTimes[st]
		sum += d
		ls.sample("core.stage."+st+"_ms", float64(d)/1e6)
	}
	ls.sample("core.unattributed_ms", float64(res.Elapsed-sum)/1e6)
}

// analyzeCold is the cold core.Analyze every check compares against:
// the production defaults with verification off.  workers 0 means one
// per CPU.
func analyzeCold(ctx context.Context, src string, procs, workers int) (*core.Result, error) {
	return core.Analyze(ctx, core.Input{Source: src}, core.Options{Procs: procs, Workers: workers, Verify: core.VerifyOff})
}

// completeAlignment embeds every array the alignment does not mention
// canonically, making the candidate a complete data layout.
func completeAlignment(u *fortran.Unit, a *layout.Alignment) {
	for _, name := range u.ArrayNames() {
		if _, ok := a.Map[name]; ok {
			continue
		}
		dims := make([]int, u.Arrays[name].Rank())
		for k := range dims {
			dims[k] = k
		}
		a.Set(name, dims)
	}
}

// widestType is the widest element type among a phase's arrays.
func widestType(u *fortran.Unit, ph *pcfg.Phase) fortran.DataType {
	dt := fortran.Real
	for _, a := range ph.Arrays {
		if arr := u.Arrays[a]; arr != nil && arr.Type == fortran.Double {
			dt = fortran.Double
		}
	}
	return dt
}

// liveIn computes the arrays live on entry to each phase by backward
// dataflow: an array is live into a phase that reads it, or that
// passes it on to a later reader without overwriting it unread.
func liveIn(g *pcfg.Graph, infos map[int]*dep.PhaseInfo) map[int]map[string]bool {
	live := map[int]map[string]bool{}
	for _, ph := range g.Phases {
		live[ph.ID] = map[string]bool{}
		for a := range infos[ph.ID].ReadSet {
			live[ph.ID][a] = true
		}
	}
	for changed := true; changed; {
		changed = false
		for i := len(g.Phases) - 1; i >= 0; i-- {
			ph := g.Phases[i]
			pi := infos[ph.ID]
			for _, e := range g.Successors(ph.ID) {
				for a := range live[e.To] {
					if (pi.WriteSet[a] && !pi.ReadSet[a]) || live[ph.ID][a] {
						continue
					}
					live[ph.ID][a] = true
					changed = true
				}
			}
		}
	}
	return live
}

// sortedNames flattens a set to a sorted list.
func sortedNames(set map[string]bool) []string {
	out := make([]string, 0, len(set))
	for a := range set {
		out = append(out, a)
	}
	sort.Strings(out)
	return out
}
