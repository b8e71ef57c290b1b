package main

import (
	"context"
	"math"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/pcfg"
)

// smallResult analyzes a small member of a scale family.
func smallResult(t *testing.T, family pcfg.ScaleFamily, phases int) *core.Result {
	t.Helper()
	src, err := pcfg.ScaleProgram(family, phases)
	if err != nil {
		t.Fatal(err)
	}
	res, err := analyzeCold(context.Background(), src, 8, 0)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestOracleAcceptsProgramAnswers(t *testing.T) {
	for _, fam := range pcfg.ScaleFamilies {
		res := smallResult(t, fam, 24)
		if _, err := check(res, nil); err != nil {
			t.Errorf("%s: %v", fam, err)
		}
	}
}

// TestOracleRejectsPerturbedChoice flips one phase to a candidate that
// costs more and keeps TotalCost consistent with the new choice, so
// only the optimality checks can catch it.
func TestOracleRejectsPerturbedChoice(t *testing.T) {
	for _, fam := range pcfg.ScaleFamilies {
		res := smallResult(t, fam, 24)
		g := rebuildGraph(res)
		base := g.cost(choiceOf(res))
		flipped := false
		for p, pr := range res.Phases {
			for i := range pr.Candidates {
				if i == pr.Chosen {
					continue
				}
				c := choiceOf(res)
				c[p] = i
				if nc := g.cost(c); nc > base*(1+1e-6) {
					pr.Chosen = i
					res.TotalCost = nc
					flipped = true
					break
				}
			}
			if flipped {
				break
			}
		}
		if !flipped {
			t.Fatalf("%s: no phase has a costlier alternative", fam)
		}
		if _, err := check(res, nil); err == nil {
			t.Errorf("%s: oracle accepted a suboptimal choice", fam)
		}
	}
}

func TestOracleRejectsPerturbedCost(t *testing.T) {
	res := smallResult(t, pcfg.StencilDeep, 24)
	res.TotalCost *= 1 + 1e-6
	if _, err := check(res, nil); err == nil {
		t.Error("oracle accepted a wrong TotalCost")
	}
}

func TestSameAnswerRejectsDifferentChoice(t *testing.T) {
	res := smallResult(t, pcfg.ConflictRing, 24)
	v, err := check(res, nil)
	if err != nil {
		t.Fatal(err)
	}
	v.choice[3] = 1 - v.choice[3]
	if sameAnswer(res, v) == nil {
		t.Error("a different choice compared equal")
	}
}

// TestOptimumMatchesEnumeration checks the frontier DP against brute
// force on rings small enough to enumerate.
func TestOptimumMatchesEnumeration(t *testing.T) {
	res := smallResult(t, pcfg.ConflictRing, 9)
	g := rebuildGraph(res)
	opt, err := g.optimum()
	if err != nil {
		t.Fatal(err)
	}
	best := math.Inf(1)
	c := make([]int, len(g.node))
	var walk func(p int)
	walk = func(p int) {
		if p == len(c) {
			best = math.Min(best, g.cost(c))
			return
		}
		for i := range g.node[p] {
			c[p] = i
			walk(p + 1)
		}
	}
	walk(0)
	if !closeTo(opt, best) {
		t.Errorf("DP optimum %v, enumeration %v", opt, best)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	q1, q2, q3 := quartiles(xs)
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v", q1, q2, q3)
	}
}

// inputsOf generates a workload's inputs and returns its replay inputs.
func inputsOf(t *testing.T, workload string, seed int64) []input {
	t.Helper()
	b, err := newBench(workload, seed)
	if err != nil {
		t.Fatal(err)
	}
	return b.primary()
}

func TestSameSeedSameInputs(t *testing.T) {
	for _, w := range workloads {
		a, b, c := inputsOf(t, w, 7), inputsOf(t, w, 7), inputsOf(t, w, 8)
		same := len(a) == len(b)
		for i := range a {
			same = same && a[i] == b[i]
		}
		if !same {
			t.Errorf("%s: seed 7 gave different inputs on two builds", w)
		}
		if w != "edit-serve" && a[0] == c[0] {
			t.Errorf("%s: seeds 7 and 8 gave the same first input", w)
		}
	}
	bases, err := serveBases()
	if err != nil {
		t.Fatal(err)
	}
	for step := 0; step < 3; step++ {
		x, px, err1 := serveEdit(bases[1], 7, step, 1)
		y, py, err2 := serveEdit(bases[1], 7, step, 1)
		if err1 != nil || err2 != nil || x != y || px != py {
			t.Fatalf("edit chain step %d is not reproducible", step)
		}
	}
}

func TestEveryWorkloadRunsToItsEnd(t *testing.T) {
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			res, err := run(context.Background(), w, 3, time.Millisecond, traced)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d", w, traced, res.Correct, res.Attempted, res.Failed)
			}
			want := len(perLayer)
			if !traced {
				want = 8 // latency_ms_p90 needs 100 ops
			}
			if len(res.Metrics) != want {
				t.Errorf("%s traced=%v: %d metrics, want %d", w, traced, len(res.Metrics), want)
			}
		}
	}
}

// TestAgreeIsTwoSided checks that the two-set comparison fails when
// either set's median beats the other's by more than the bound.
func TestAgreeIsTwoSided(t *testing.T) {
	a := []float64{100, 101, 99, 100, 102}
	for _, c := range []struct {
		name  string
		scale float64
		want  bool
	}{
		{"equal", 1, true},
		{"B 10% higher", 1.1, true},
		{"B 10% lower", 0.9, true},
		{"B 40% higher", 1.4, false},
		{"B 40% lower", 0.6, false},
	} {
		b := make([]float64, len(a))
		for i, x := range a {
			b[i] = x * c.scale
		}
		if got := agree(a, b, 0.25, true).ok; got != c.want {
			t.Errorf("%s: agree = %v, want %v", c.name, got, c.want)
		}
	}
	wide := []float64{50, 100, 150, 100, 100, 60, 140}
	if agree(wide, wide, 0.25, true).ok {
		t.Error("sets with a spread above the bound agreed")
	}
	if !agree(wide, wide, 0.25, false).ok {
		t.Error("setup_s's spread is not bounded, but it failed the sets")
	}
}

// TestTimingTakesLeastStolenWindows checks that the time metrics come
// from the clean windows when they hold enough ops, and otherwise from
// the windows under the lowest steal limit that does.
func TestTimingTakesLeastStolenWindows(t *testing.T) {
	mt := &meter{}
	add := func(n int, steal int64, ms float64) {
		for i := 0; i < n; i++ {
			mt.wins = append(mt.wins, win{lat: []float64{ms}, cpu: ms, wall: ms / 1e3, steal: steal})
		}
	}
	add(minTimedOps, 0, 10)
	add(minTimedOps, 3, 50)
	if tm := mt.timing(); tm.ops != minTimedOps || median(tm.lat) != 10 {
		t.Errorf("clean windows enough: %d ops, median %v", tm.ops, median(tm.lat))
	}
	mt.wins = nil
	add(minTimedOps/2, 0, 10)
	add(minTimedOps/2, 1, 12)
	add(minTimedOps, 3, 50)
	if tm := mt.timing(); tm.ops != minTimedOps || tm.maxSteal != 1 {
		t.Errorf("clean windows too few: %d ops up to %d ticks, want %d up to 1", tm.ops, tm.maxSteal, minTimedOps)
	}
	mt.wins = nil
	add(3, 2, 20)
	if tm := mt.timing(); tm.ops != 3 {
		t.Errorf("too few windows in all: %d ops, want every one", tm.ops)
	}
}
