package main

// Two-set comparison mode: run one workload k times in each of two
// sets, alternating A, B, A, B, ... on the same seed, each run in its
// own child process and compareGap after the previous one, and report
// per end-to-end metric each set's median and quartiles, each set's
// spread (interquartile range over median), the spread of all 2k runs
// together, and whether the sets agree within the metric's bound from
// BENCHMARK.json.  Every run takes the same inputs, so the spread is
// the host's, not the seeds'; the gap spreads the runs out in time, so
// the sets see the host's slow phases rather than one moment of it.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
	"time"
)

// compareGap is the pause between two runs of the comparison.
const compareGap = 60 * time.Second

// benchFile is the part of BENCHMARK.json this mode reads.
type benchFile struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// childRun runs one workload in a child process and parses its result.
func childRun(workload string, seed int64, seconds int) (*result, error) {
	cmd := exec.Command(os.Args[0], "--workload", workload, "--seed", strconv.FormatInt(seed, 10),
		"--seconds", strconv.Itoa(seconds), "--trace", "0")
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("seed %d: %w", seed, err)
	}
	var last string
	sc := bufio.NewScanner(&out)
	for sc.Scan() {
		if line := strings.TrimSpace(sc.Text()); line != "" {
			last = line
		}
	}
	res := &result{}
	if err := json.Unmarshal([]byte(last), res); err != nil {
		return nil, fmt.Errorf("seed %d: result line: %w", seed, err)
	}
	return res, nil
}

// quartiles returns q1, median and q3 as Python's
// statistics.quantiles(xs, n=4) computes them (the exclusive method).
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sortedCopy(xs)
	ld := len(s)
	if ld == 1 {
		return s[0], s[0], s[0]
	}
	const n = 4
	m := ld + 1
	at := func(i int) float64 {
		j := min(max(i*m/n, 1), ld-1)
		delta := float64(i*m - j*n)
		return (s[j-1]*(n-delta) + s[j]*delta) / n
	}
	return at(1), at(2), at(3)
}

// agreement is one metric's verdict over the two sets.
type agreement struct {
	a1, am, a3, b1, bm, b3 float64 // each set's quartiles
	sa, sb, sAll           float64 // each set's spread, and both together
	ok                     bool
}

// agree reports whether two sets of a metric's values agree within
// bound: their medians differ by at most bound relative to set A's, in
// either direction, and (but for setup_s, whose bound is set on its
// median alone) each set's spread is within bound.
func agree(a, b []float64, bound float64, spreadBound bool) agreement {
	var g agreement
	g.a1, g.am, g.a3 = quartiles(a)
	g.b1, g.bm, g.b3 = quartiles(b)
	l1, lm, l3 := quartiles(append(append([]float64(nil), a...), b...))
	g.sa, g.sb, g.sAll = (g.a3-g.a1)/g.am, (g.b3-g.b1)/g.bm, (l3-l1)/lm
	g.ok = math.Abs(g.bm-g.am)/g.am <= bound
	if spreadBound {
		g.ok = g.ok && g.sa <= bound && g.sb <= bound
	}
	return g
}

// compare runs the two sets and prints the table.
func compare(workload string, seed int64, seconds, k int) error {
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return err
	}
	var bf benchFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	sets := [2]map[string][]float64{{}, {}}
	var failShare [2][]float64
	for i := 0; i < 2*k; i++ {
		if i > 0 {
			time.Sleep(compareGap)
		}
		set := i % 2
		res, err := childRun(workload, seed, seconds)
		if err != nil {
			return err
		}
		if !res.Correct {
			return fmt.Errorf("run %d: the oracle rejected an answer", i+1)
		}
		for name, m := range res.Metrics {
			sets[set][name] = append(sets[set][name], m.Value)
		}
		failShare[set] = append(failShare[set], float64(res.Failed)/float64(res.Attempted))
		fmt.Fprintf(os.Stderr, "run %d/%d (set %c) done\n", i+1, 2*k, 'A'+set)
	}
	fmt.Printf("%-18s %-6s %12s %12s %12s %7s | %12s %12s %12s %7s | %7s %6s %s\n",
		"metric", "unit", "A q1", "A median", "A q3", "spread", "B q1", "B median", "B q3", "spread", "all", "bound", "agree")
	all := true
	for _, m := range bf.EndToEnd {
		a, b := sets[0][m.Name], sets[1][m.Name]
		if len(a) == 0 || len(b) == 0 {
			fmt.Printf("%-18s missing\n", m.Name)
			all = false
			continue
		}
		g := agree(a, b, m.Bound, m.Name != "setup_s")
		all = all && g.ok
		fmt.Printf("%-18s %-6s %12.4f %12.4f %12.4f %7.3f | %12.4f %12.4f %12.4f %7.3f | %7.3f %6.3f %v\n",
			m.Name, m.Unit, g.a1, g.am, g.a3, g.sa, g.b1, g.bm, g.b3, g.sb, g.sAll, m.Bound, g.ok)
	}
	sort.Float64s(failShare[0])
	sort.Float64s(failShare[1])
	fmt.Printf("failed share: A %v  B %v\n", failShare[0], failShare[1])
	if !all {
		return fmt.Errorf("the two sets do not agree within the bounds")
	}
	return nil
}
