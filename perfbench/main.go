// Command perfbench is the layout assistant's benchmark.  It runs one
// workload for a fixed time, checks every answer against an oracle
// built apart from the program, and prints one JSON result line:
//
//	perfbench --workload deep-cold --seed 1 --seconds 15 --trace 0
//
// --trace 0 reports the end-to-end metrics; --trace 1 is the separate
// traced run that replays the workload's inputs through each layer and
// reports the per-layer metrics.  --compare k runs the workload k times
// on the seed in each of two alternating sets of child processes, a
// minute apart, and prints, per end-to-end metric, the two sets'
// medians and quartiles and whether they agree within the bound in
// BENCHMARK.json.  See README.md.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"time"
)

// workloads lists the workload names in BENCHMARK.json order.
var workloads = []string{"deep-cold", "ring-cold", "edit-serve", "store-restart"}

// A run sets the program up at least minSetups times, and more, up to
// maxSetups, until keptSetups set-ups ran without the hypervisor taking
// CPU time from the machine.  setup_s is the median of the keptSetups
// set-ups that lost the least.
const (
	minSetups  = 5
	maxSetups  = 9
	keptSetups = 3
)

// result is the last line a run prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	workload := flag.String("workload", "", "workload to run: "+fmt.Sprint(workloads))
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Int("seconds", 15, "how long the run measures")
	trace := flag.Int("trace", 0, "1 for the traced per-layer run")
	compareK := flag.Int("compare", 0, "run k times in each of two alternating sets and compare")
	flag.Parse()
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be >= 1 and --trace 0 or 1")
		os.Exit(2)
	}
	if *compareK > 0 {
		if err := compare(*workload, *seed, *seconds, *compareK); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	res, err := run(context.Background(), *workload, *seed, time.Duration(*seconds)*time.Second, *trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// setUp generates the workload's inputs and sets the program up
// several times, keeping the last set-up.  It returns the bench and
// the set-up time in seconds.
func setUp(ctx context.Context, workload string, seed int64) (bench, float64, error) {
	b, err := newBench(workload, seed)
	if err != nil {
		return nil, 0, fmt.Errorf("%s inputs: %w", workload, err)
	}
	var sws []*stopwatch
	clean := 0
	for i := 0; i < maxSetups && (i < minSetups || clean < keptSetups); i++ {
		runtime.GC() // start every set-up from the same heap
		sw := &stopwatch{}
		if err := b.setup(ctx, sw); err != nil {
			b.close()
			return nil, 0, fmt.Errorf("%s set-up: %w", workload, err)
		}
		sws = append(sws, sw)
		if sw.steal == 0 {
			clean++
		}
	}
	sort.SliceStable(sws, func(i, j int) bool { return sws[i].steal < sws[j].steal })
	var kept []float64
	for _, sw := range sws[:keptSetups] {
		kept = append(kept, sw.d.Seconds())
	}
	return b, median(kept), nil
}

// run executes one workload for d and returns its result line.
func run(ctx context.Context, workload string, seed int64, d time.Duration, traced bool) (*result, error) {
	b, setupS, err := setUp(ctx, workload, seed)
	if err != nil {
		return nil, err
	}
	defer b.close()
	if err := b.verify(ctx); err != nil {
		return nil, fmt.Errorf("%s reference answers: %w", workload, err)
	}
	t := &tally{}
	if traced {
		return runTraced(ctx, workload, seed, b, d, t)
	}
	mt := &meter{}
	rc := &roundCtx{mt: mt, t: t}
	// Whole rounds, at least one, until d has passed and the run has
	// the ops latency_ms_p90 needs; a slowed host may stretch the run
	// to at most 2d for them.
	start := time.Now()
	for {
		b.round(ctx, rc)
		if el := time.Since(start); el >= 2*d || el >= d && mt.ops >= p90MinOps {
			break
		}
	}
	fmt.Fprintf(os.Stderr, "perfbench: %s: %s\n", workload, mt.stolenLog())
	if t.first != "" {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %d of %d ops failed; first: %s\n", workload, t.failed, t.attempted, t.first)
	}
	return &result{
		Correct:   t.wrong == 0,
		Attempted: t.attempted,
		Failed:    t.failed,
		Metrics:   mt.endToEnd(setupS),
	}, nil
}

// runTraced is the per-layer run: the layer replay of the workload's
// inputs, probes of the entry points its ops do not reach, then the
// workload's own rounds alternating between traced and untraced, so
// the tracing overhead is measured within one process.
func runTraced(ctx context.Context, workload string, seed int64, b bench, d time.Duration, t *tally) (*result, error) {
	tr := newTracer()
	ls := newLayerStats()
	for _, in := range b.primary() {
		t.attempted++
		if err := replay(ctx, tr, ls, in.src, in.procs); err != nil {
			t.fail(err, true)
		}
	}
	in := b.primary()[0]
	for _, kind := range b.probes() {
		if err := probe(ctx, kind, tr, ls, in, seed); err != nil {
			return nil, fmt.Errorf("%s probe: %w", kind, err)
		}
	}
	plain, traced := &meter{}, &meter{}
	for start, k := time.Now(), 0; time.Since(start) < d || k < 2; k++ {
		rc := &roundCtx{mt: plain, t: t, ls: ls}
		if k%2 == 1 {
			rc.mt, rc.tr = traced, tr
		}
		b.round(ctx, rc)
	}
	switch b := b.(type) {
	case *serveBench:
		serverCounters(ls, b.srv)
	case *storeBench:
		ls.add("store.excess_reported_writes", b.excessWrites)
	}
	for _, mt := range []*meter{plain, traced} {
		ls.add("runtime.gc_cycles_per_op", float64(mt.gcCycles)/float64(mt.ops))
		ls.add("runtime.gc_pause_ms_per_op", float64(mt.gcPauseNs)/1e6/float64(mt.ops))
	}
	base := median(plain.timing().lat)
	ls.sample("trace.overhead_pct", (median(traced.timing().lat)-base)/base*100)
	if err := tr.write(tracePath(workload, seed)); err != nil {
		return nil, err
	}
	metrics := map[string]metric{}
	for _, m := range perLayer {
		metrics[m.name] = metric{ls.value(m.name), m.unit}
	}
	if t.first != "" {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %d of %d ops failed; first: %s\n", workload, t.failed, t.attempted, t.first)
	}
	printSelfTimes(tr)
	return &result{Correct: t.wrong == 0, Attempted: t.attempted, Failed: t.failed, Metrics: metrics}, nil
}

// printSelfTimes logs each span name's total self time to stderr.
func printSelfTimes(tr *tracer) {
	self := tr.selfTimes()
	names := make([]string, 0, len(self))
	for n := range self {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		total := 0.0
		for _, v := range self[n] {
			total += v
		}
		fmt.Fprintf(os.Stderr, "self %-22s %6d spans %10.1f ms\n", n, len(self[n]), total)
	}
}
