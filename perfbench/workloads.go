package main

// The four workloads, one per entry point users call:
//
//	deep-cold      cold core.Analyze, path-shaped program (front half dominates)
//	ring-cold      cold core.Analyze, cyclic program (0-1 selection dominates)
//	edit-serve     layoutd behind loopback HTTP, two clients walking edit chains
//	store-restart  open an L3 store and sweep Sessions over it, read-only
//
// Each workload generates its inputs from the seed, sets the program up
// (timed as setup_s, several times), and then runs whole rounds of
// operations.  Every answer is checked by the oracle outside the timed
// window.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/fortran"
	"repro/internal/pcfg"
	"repro/internal/programs"
	"repro/internal/service"
	"repro/internal/store"
)

// workDir holds everything a run writes (stores, traces), inside the
// checkout the benchmark runs from.
const workDir = ".bench_build"

// bench is one workload's program-side state.
type bench interface {
	// setup prepares the program side, replacing any earlier set-up,
	// and times the program's part of it on sw (setup_s).
	setup(ctx context.Context, sw *stopwatch) error
	// verify runs the oracle over what setup produced (untimed).
	verify(ctx context.Context) error
	// round runs one whole round of operations.
	round(ctx context.Context, rc *roundCtx)
	// primary lists the inputs the traced run replays through the layers.
	primary() []input
	// probes names the entry points the workload's own ops do not reach,
	// which the traced run drives once so every layer is measured.
	probes() []string
	// close releases everything setup acquired.
	close()
}

// input is one (program, processor count) pair.
type input struct {
	src   string
	procs int
}

// roundCtx is what a round reports into.
type roundCtx struct {
	mt *meter
	tr *tracer     // nil outside traced rounds
	ls *layerStats // nil outside the traced run
	t  *tally
}

// tally counts attempted and failed operations.
type tally struct {
	attempted, failed int
	// wrong counts failures where the program answered but the oracle
	// rejected the answer.
	wrong int
	first string // the first failure, for the log
}

func (t *tally) fail(err error, wrong bool) {
	t.failed++
	if wrong {
		t.wrong++
	}
	if t.first == "" {
		t.first = err.Error()
	}
}

// newBench generates a workload's inputs from its seed.
func newBench(name string, seed int64) (bench, error) {
	switch name {
	case "deep-cold":
		srcs, err := scaleVariants(pcfg.StencilDeep, 500, seed)
		return &coldBench{srcs: srcs, procs: 8}, err
	case "ring-cold":
		srcs, err := scaleVariants(pcfg.ConflictRing, 200, seed)
		return &coldBench{srcs: srcs, procs: 8}, err
	case "edit-serve":
		bases, err := serveBases()
		return &serveBench{seed: seed, bases: bases}, err
	case "store-restart":
		progs, err := paperPrograms(seed)
		return &storeBench{progs: progs}, err
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// defaultType is the element type of the paper programs.
const defaultType = fortran.Real

// variants is how many seeded one-edit variants of the base program a
// cold round analyzes.
const variants = 4

// variantSeed derives the edit seed of variant k from the run seed.
func variantSeed(seed int64, k int) int64 { return seed*1009 + int64(k) }

// scaleVariants renders the family's program and applies one seeded
// value edit per variant.
func scaleVariants(family pcfg.ScaleFamily, phases int, seed int64) ([]string, error) {
	base, err := pcfg.ScaleProgram(family, phases)
	if err != nil {
		return nil, err
	}
	out := make([]string, variants)
	for k := range out {
		if out[k], err = valueEdit(base, variantSeed(seed, k)); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// valueEdit applies the first seeded edit, from seed upward, that
// changes a value (a loop bound or a real constant) rather than an
// access pattern.  A subscript swap plants a new alignment conflict:
// on conflict-ring 250 it takes the selection ILP from about 1,300
// pivots and one node to 3,600-4,700 pivots and five nodes, so a seed
// that happened to draw swaps would set the timings by itself.  The
// fixed-work workloads therefore take value edits only; edit-serve's
// chains take every kind, in a fixed order.
func valueEdit(src string, seed int64) (string, error) {
	return seededEdit(src, seed, func(kind string) bool { return kind != "subscript-swap" })
}

// seededEdit applies the first seeded edit, from seed upward, whose
// kind passes want.
func seededEdit(src string, seed int64, want func(kind string) bool) (string, error) {
	const tries = 64
	for s := seed; s < seed+tries; s++ {
		out, m, err := pcfg.MutateProgram(src, s, pcfg.Options{})
		if err != nil {
			return "", err
		}
		if want(m.Kind) {
			return out, nil
		}
	}
	return "", fmt.Errorf("no wanted edit in %d seeds from %d", tries, seed)
}

// recordCache folds one answer's cache traffic into the layer stats.
func recordCache(ls *layerStats, c core.CacheSummary) {
	if ls == nil {
		return
	}
	ls.add("core.l1_pricing_hit_ratio", c.Pricing.HitRate())
	ls.add("core.l1_remap_hit_ratio", c.Remap.HitRate())
	ls.add("core.l2_pricing_hit_ratio", c.SharedPricing.HitRate())
	ls.add("core.l2_selection_hits", float64(c.SharedSelection.Hits))
}

// ---- deep-cold and ring-cold ----

type coldBench struct {
	srcs  []string
	procs int

	verdicts []verdict
	bad      []error // per variant: the oracle's rejection of the reference
}

// setup is the first analysis of every variant; each answer is checked
// by the oracle (untimed) and dropped, so only one is alive at a time.
func (b *coldBench) setup(ctx context.Context, sw *stopwatch) error {
	b.verdicts = make([]verdict, len(b.srcs))
	b.bad = make([]error, len(b.srcs))
	for k, src := range b.srcs {
		sw.start()
		res, err := analyzeCold(ctx, src, b.procs, 0)
		sw.stop()
		if err != nil {
			return err
		}
		b.verdicts[k], b.bad[k] = check(res, experiments.Measure)
	}
	return nil
}

func (b *coldBench) verify(context.Context) error { return nil }

func (b *coldBench) round(ctx context.Context, rc *roundCtx) {
	for k, src := range b.srcs {
		w := rc.mt.open()
		id := rc.tr.begin("op.analyze", 0)
		res, err := analyzeCold(ctx, src, b.procs, 0)
		rc.tr.end(id)
		rc.mt.close(w)
		rc.t.attempted++
		switch {
		case err != nil:
			rc.t.fail(err, false)
		case b.bad[k] != nil:
			rc.t.fail(b.bad[k], true)
		default:
			if err := sameAnswer(res, b.verdicts[k]); err != nil {
				rc.t.fail(err, true)
				continue
			}
			rc.mt.sim = append(rc.mt.sim, b.verdicts[k].simS)
			recordCache(rc.ls, res.Cache)
		}
	}
}

func (b *coldBench) primary() []input {
	out := make([]input, len(b.srcs))
	for k, src := range b.srcs {
		out[k] = input{src, b.procs}
	}
	return out
}

func (b *coldBench) probes() []string { return []string{"update", "store", "service"} }
func (b *coldBench) close()           {}

// ---- edit-serve ----

// serveProcs is the processor counts the edit clients rotate through.
var serveProcs = []int{4, 8, 16}

// chainKinds is the kind of each edit of a chain; after the last the
// client returns to its base program.  Edits compound: on
// conflict-ring 40 each subscript swap adds alignment conflicts, and
// twelve chained edits took a cold analysis from 9 ms to 60-160 ms, so
// an unbounded chain would make the op cost grow with the run's length.
// A fixed order of kinds, with the seed choosing the phase and the
// value, gives every seed the same mix of cheap value edits and costly
// swaps.
var chainKinds = []string{"real-const", "subscript-swap", "loop-bound", "real-const"}

// serveClients is the closed loop's client count (one per CPU of the
// reference host).
const serveClients = 2

type serveBench struct {
	seed int64

	bases [serveClients]string
	cur   [serveClients]string
	step  int

	srv     *service.Server
	hs      *httptest.Server
	handler [serveClients]chan time.Duration // per client: the last handler time
	tr      atomic.Pointer[tracer]           // spans of the current round (nil when untraced)
}

// serveBases are the clients' starting programs: one path-shaped, one
// cyclic, both mid-size.
func serveBases() ([serveClients]string, error) {
	var out [serveClients]string
	var err error
	if out[0], err = pcfg.ScaleProgram(pcfg.StencilDeep, 120); err != nil {
		return out, err
	}
	out[1], err = pcfg.ScaleProgram(pcfg.ConflictRing, 40)
	return out, err
}

func (b *serveBench) setup(ctx context.Context, sw *stopwatch) error {
	b.close()
	b.cur, b.step = b.bases, 0
	sw.start()
	defer sw.stop()
	var err error
	if b.srv, err = service.NewServer(service.Config{}); err != nil {
		return err
	}
	for c := range b.handler {
		b.handler[c] = make(chan time.Duration, 1)
	}
	b.hs = httptest.NewServer(http.HandlerFunc(b.serve))
	// First contact creates each client's daemon session and prices its
	// program at every processor count of the rotation.
	for c := range b.cur {
		for _, p := range serveProcs {
			if ex := b.post(ctx, c, b.cur[c], p, 0); ex.err != nil {
				return ex.err
			}
		}
	}
	return nil
}

// serve wraps the daemon's handler to time it from outside.
func (b *serveBench) serve(w http.ResponseWriter, r *http.Request) {
	parent, _ := strconv.Atoi(r.Header.Get("X-Bench-Span"))
	tr := b.tr.Load()
	id := tr.begin("service.handler", parent)
	t0 := time.Now()
	b.srv.ServeHTTP(w, r)
	d := time.Since(t0)
	tr.end(id)
	if c, err := strconv.Atoi(r.Header.Get("X-Bench-Client")); err == nil && c >= 0 && c < serveClients {
		select {
		case b.handler[c] <- d:
		default: // a previous reply was never collected
		}
	}
}

// exchange is one request's outcome as a client sees it.
type exchange struct {
	resp    *core.Response
	rt, hdl time.Duration // round trip; the handler's share of it
	err     error
}

// post sends one analysis request and returns the decoded response,
// the round-trip and handler times, and an error for anything but a
// 200.
func (b *serveBench) post(ctx context.Context, c int, src string, procs, span int) exchange {
	body, err := json.Marshal(core.Request{V: core.WireV1, Source: src, Procs: procs})
	if err != nil {
		return exchange{err: err}
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, b.hs.URL+"/v1/analyze", bytes.NewReader(body))
	if err != nil {
		return exchange{err: err}
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Bench-Client", strconv.Itoa(c))
	req.Header.Set("X-Bench-Span", strconv.Itoa(span))
	t0 := time.Now()
	resp, err := b.hs.Client().Do(req)
	if err != nil {
		select {
		case <-b.handler[c]:
		default:
		}
		return exchange{err: err}
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	ex := exchange{rt: time.Since(t0), hdl: <-b.handler[c]}
	switch {
	case err != nil:
		ex.err = err
	case resp.StatusCode != http.StatusOK:
		ex.err = fmt.Errorf("layoutd: HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(raw))
	default:
		ex.resp = &core.Response{}
		if err := json.Unmarshal(raw, ex.resp); err != nil {
			ex.err = fmt.Errorf("layoutd: decoding response: %w", err)
		}
	}
	return ex
}

// sampleExchange records the handler time and the wire time (round
// trip minus handler) of one exchange.
func sampleExchange(ls *layerStats, ex exchange) {
	if ls == nil {
		return
	}
	ls.sample("service.handler_ms_p50", float64(ex.hdl)/1e6)
	ls.sample("service.wire_ms_p50", float64(ex.rt-ex.hdl)/1e6)
}

// serveEdit is client c's request at step of its chain: the next
// seeded edit of its current source and the processor count.
func serveEdit(cur string, seed int64, step, c int) (string, int, error) {
	kind := chainKinds[step%len(chainKinds)]
	src, err := seededEdit(cur, seed*1_000_003+int64(step*serveClients+c)*64, func(k string) bool { return k == kind })
	return src, serveProcs[(step+c)%len(serveProcs)], err
}

func (b *serveBench) verify(context.Context) error { return nil }

func (b *serveBench) round(ctx context.Context, rc *roundCtx) {
	// Untimed: each client's next edit and processor count.  A chain
	// returns to its base program every len(chainKinds) edits, so the
	// programs stay a few edits from the base however long the run.
	if b.step%len(chainKinds) == 0 {
		b.cur = b.bases
	}
	var srcs [serveClients]string
	var procs [serveClients]int
	for c := range srcs {
		src, p, err := serveEdit(b.cur[c], b.seed, b.step, c)
		if err != nil {
			// The edit generator guarantees a valid edit of a valid
			// program; failing here is a benchmark fault, not an op.
			panic(fmt.Sprintf("edit chain: %v", err))
		}
		srcs[c], procs[c], b.cur[c] = src, p, src
	}
	b.step++

	var ans [serveClients]exchange
	b.tr.Store(rc.tr)
	w := rc.mt.open()
	done := make(chan struct{})
	for c := range srcs {
		go func(c int) {
			defer func() { done <- struct{}{} }()
			id := rc.tr.begin("service.roundtrip", 0)
			ans[c] = b.post(ctx, c, srcs[c], procs[c], id)
			rc.tr.end(id)
		}(c)
	}
	for range srcs {
		<-done
	}
	rc.mt.close(w, ans[0].rt, ans[1].rt)
	b.tr.Store(nil)

	// Untimed: every answer against a cold analysis and the oracle.
	for c, a := range ans {
		rc.t.attempted++
		if a.err != nil {
			rc.t.fail(a.err, false)
			continue
		}
		cold, err := analyzeCold(ctx, srcs[c], procs[c], 0)
		if err != nil {
			rc.t.fail(fmt.Errorf("cold reference: %w", err), false)
			continue
		}
		v, err := check(cold, experiments.Measure)
		if err == nil && (a.resp.HPF != cold.EmitHPF() || !closeTo(a.resp.TotalCostUS, cold.TotalCost)) {
			err = fmt.Errorf("served answer (cost %v) differs from a cold analysis (cost %v)", a.resp.TotalCostUS, cold.TotalCost)
		}
		if err != nil {
			rc.t.fail(err, true)
			continue
		}
		rc.mt.sim = append(rc.mt.sim, v.simS)
		sampleExchange(rc.ls, a)
		if ls := rc.ls; ls != nil {
			st := a.resp.Stats
			recordCache(ls, st.Cache)
			ls.sample("core.update_ms", float64(st.ElapsedUS)/1e3)
			ls.add("core.reuse_ratio", st.Incremental.ReuseRatio)
			ls.add("core.replayed_phases", float64(st.Incremental.Stages["dep"].Replayed))
		}
	}
}

// serverCounters records the daemon's own counters into the stats.
func serverCounters(ls *layerStats, srv *service.Server) {
	m := srv.Metrics()
	ls.add("service.dedup", float64(m.DedupInflightHits))
	ls.add("service.sessions", float64(m.IncrementalSessions))
	ls.add("service.rejected", float64(m.RequestsRejected))
}

func (b *serveBench) primary() []input {
	return []input{{b.bases[0], 8}, {b.bases[1], 8}}
}

func (b *serveBench) probes() []string { return []string{"store"} }

func (b *serveBench) close() {
	if b.hs != nil {
		b.hs.Close()
		b.hs = nil
	}
	if b.srv != nil {
		b.srv.Close()
		b.srv = nil
	}
}

// ---- store-restart ----

// storeProcs is the machine sweep of every store-restart op.
var storeProcs = []int{2, 4, 8, 16, 32}

type storeBench struct {
	progs        []string
	dir          string
	excessWrites float64     // of the populating sweep
	verdicts     [][]verdict // [program][procs index]
	bad          [][]error
}

// paperPrograms renders the paper's four programs at their headline
// sizes, each with one seeded value edit.
func paperPrograms(seed int64) ([]string, error) {
	var out []string
	for k, spec := range programs.All() {
		src, err := valueEdit(spec.Source(spec.DefaultN, defaultType), variantSeed(seed, k))
		if err != nil {
			return nil, fmt.Errorf("%s: %w", spec.Name, err)
		}
		out = append(out, src)
	}
	return out, nil
}

// setup runs a populating sweep into the workload's store.  The first
// set-up of a run writes every record; the later ones find every record
// resident, so they time the sweep's compute and store lookups rather
// than the writes.  A write costs two fsyncs (record and directory):
// populating the 1,722 records took 0.6-2.7 s depending on the shared
// disk's fsync latency at the time, which drifted threefold within
// minutes, while the same sweep computes in about 0.1 s.  A median over
// fresh populates would measure the disk, not the program.
func (b *storeBench) setup(ctx context.Context, sw *stopwatch) error {
	if b.dir == "" {
		if err := os.MkdirAll(workDir, 0o755); err != nil {
			return err
		}
		var err error
		if b.dir, err = os.MkdirTemp(workDir, "store-"); err != nil {
			return err
		}
	}
	sw.start()
	st, err := store.Open(store.Options{Dir: b.dir})
	if err != nil {
		sw.stop()
		return err
	}
	populating := st.Len() == 0
	answers, err := sweep(ctx, st, b.progs)
	st.Close()
	sw.stop()
	if err != nil {
		return err
	}
	if populating {
		b.excessWrites = excessWrites(answers, st)
	}
	return nil
}

// excessWrites is how many more store writes the answers' run-level
// CacheSummary.Store.Writes report than the store itself performed:
// puts of keys already resident, which the store skips.
func excessWrites(answers [][]*core.Result, st *store.Store) float64 {
	var reported int64
	for _, row := range answers {
		for _, res := range row {
			reported += res.Cache.Store.Writes
		}
	}
	return float64(reported - st.Stats().Writes)
}

// sweep runs a Session per program over every processor count with
// the store as L3, returning the answers [program][procs index].
func sweep(ctx context.Context, st *store.Store, progs []string) ([][]*core.Result, error) {
	out := make([][]*core.Result, len(progs))
	for i, src := range progs {
		sess, err := core.NewSession(ctx, core.Input{Source: src}, core.Options{Procs: 8, Store: st, Verify: core.VerifyOff})
		if err != nil {
			return nil, err
		}
		for _, p := range storeProcs {
			res, err := sess.Analyze(ctx, core.Options{Procs: p, Store: st, Verify: core.VerifyOff})
			if err != nil {
				return nil, err
			}
			out[i] = append(out[i], res)
		}
	}
	return out, nil
}

func (b *storeBench) verify(ctx context.Context) error {
	b.verdicts = make([][]verdict, len(b.progs))
	b.bad = make([][]error, len(b.progs))
	for i, src := range b.progs {
		for _, p := range storeProcs {
			cold, err := analyzeCold(ctx, src, p, 0)
			if err != nil {
				return err
			}
			v, verr := check(cold, experiments.Measure)
			b.verdicts[i] = append(b.verdicts[i], v)
			b.bad[i] = append(b.bad[i], verr)
		}
	}
	return nil
}

// restarts splits the paper's four programs (programs.All() order:
// adi, erlebacher, tomcatv, shallow) over the ops of a store-restart
// round.  Each op opens the store and sweeps its programs, so a round
// sweeps all four.  The sweeps take about 9, 22, 22 and 40 ms after a
// 40 ms open; pairing adi with shallow and erlebacher with tomcatv
// gives two ops of about the same cost (one mode, so a median is
// steady), each about 90 ms long.  The one 130 ms op over all four
// programs lost CPU time to the hypervisor in nearly every window
// during steal phases, when shorter windows still had clean ones.
var restarts = [][]int{{0, 3}, {1, 2}}

func (b *storeBench) round(ctx context.Context, rc *roundCtx) {
	for _, progs := range restarts {
		b.restart(ctx, rc, progs)
	}
}

// restart is one op: open the store, sweep the programs, close.
func (b *storeBench) restart(ctx context.Context, rc *roundCtx, progs []int) {
	srcs := make([]string, len(progs))
	for k, i := range progs {
		srcs[k] = b.progs[i]
	}
	w := rc.mt.open()
	op := rc.tr.begin("op.restart", 0)
	id := rc.tr.begin("store.open", op)
	t0 := time.Now()
	st, err := store.Open(store.Options{Dir: b.dir})
	openMS := float64(time.Since(t0)) / 1e6
	rc.tr.end(id)
	var answers [][]*core.Result
	if err == nil {
		id = rc.tr.begin("core.sweep", op)
		answers, err = sweep(ctx, st, srcs)
		rc.tr.end(id)
		st.Close()
	}
	rc.tr.end(op)
	rc.mt.close(w)
	rc.t.attempted++
	if err != nil {
		rc.t.fail(err, false)
		return
	}
	for k, i := range progs {
		for j, res := range answers[k] {
			if b.bad[i][j] != nil {
				rc.t.fail(b.bad[i][j], true)
				return
			}
			if err := sameAnswer(res, b.verdicts[i][j]); err != nil {
				rc.t.fail(err, true)
				return
			}
		}
	}
	for k, i := range progs {
		for j, res := range answers[k] {
			rc.mt.sim = append(rc.mt.sim, b.verdicts[i][j].simS)
			recordCache(rc.ls, res.Cache)
		}
	}
	if ls := rc.ls; ls != nil {
		s := st.Stats()
		ls.sample("store.open_ms", openMS)
		ls.add("store.hits", float64(s.Hits))
		ls.add("store.misses", float64(s.Misses))
		ls.add("store.writes", float64(s.Writes))
	}
}

func (b *storeBench) primary() []input {
	out := make([]input, len(b.progs))
	for i, src := range b.progs {
		out[i] = input{src, 8}
	}
	return out
}

func (b *storeBench) probes() []string { return []string{"update", "service"} }

func (b *storeBench) close() {
	if b.dir != "" {
		os.RemoveAll(b.dir)
		b.dir = ""
	}
}

// ---- probes of the traced run ----

// probe drives one entry point a few times on in, so that a traced run
// measures every layer even where the workload's own ops do not reach.
func probe(ctx context.Context, kind string, tr *tracer, ls *layerStats, in input, seed int64) error {
	switch kind {
	case "update":
		sess, err := core.NewSession(ctx, core.Input{Source: in.src}, core.Options{Procs: in.procs, Verify: core.VerifyOff})
		if err != nil {
			return err
		}
		src := in.src
		for k := 0; k < 3; k++ {
			if src, err = valueEdit(src, variantSeed(seed, 100+k)); err != nil {
				return err
			}
			id := tr.begin("probe.update", 0)
			t0 := time.Now()
			res, err := sess.Update(ctx, src, core.Options{Procs: in.procs, Verify: core.VerifyOff})
			d := time.Since(t0)
			tr.end(id)
			if err != nil {
				return err
			}
			ls.sample("core.update_ms", float64(d)/1e6)
			ls.add("core.reuse_ratio", res.Incremental.ReuseRatio)
			ls.add("core.replayed_phases", float64(res.Incremental.Stages["dep"].Replayed))
		}
	case "store":
		if err := os.MkdirAll(workDir, 0o755); err != nil {
			return err
		}
		dir, err := os.MkdirTemp(workDir, "probe-")
		if err != nil {
			return err
		}
		defer os.RemoveAll(dir)
		st, err := store.Open(store.Options{Dir: dir})
		if err != nil {
			return err
		}
		res, err := core.Analyze(ctx, core.Input{Source: in.src}, core.Options{Procs: in.procs, Store: st, Verify: core.VerifyOff})
		st.Close()
		if err != nil {
			return err
		}
		ls.add("store.excess_reported_writes", excessWrites([][]*core.Result{{res}}, st))
		for k := 0; k < 3; k++ {
			id := tr.begin("store.open", 0)
			t0 := time.Now()
			st, err := store.Open(store.Options{Dir: dir})
			ls.sample("store.open_ms", float64(time.Since(t0))/1e6)
			tr.end(id)
			if err != nil {
				return err
			}
			_, err = core.Analyze(ctx, core.Input{Source: in.src}, core.Options{Procs: in.procs, Store: st, Verify: core.VerifyOff})
			st.Close()
			if err != nil {
				return err
			}
			s := st.Stats()
			ls.add("store.hits", float64(s.Hits))
			ls.add("store.misses", float64(s.Misses))
			ls.add("store.writes", float64(s.Writes))
		}
	case "service":
		b := &serveBench{}
		var err error
		if b.srv, err = service.NewServer(service.Config{}); err != nil {
			return err
		}
		b.handler[0] = make(chan time.Duration, 1)
		b.hs = httptest.NewServer(http.HandlerFunc(b.serve))
		defer b.close()
		b.tr.Store(tr)
		for _, p := range serveProcs {
			id := tr.begin("service.roundtrip", 0)
			ex := b.post(ctx, 0, in.src, p, id)
			tr.end(id)
			if ex.err != nil {
				return ex.err
			}
			sampleExchange(ls, ex)
		}
		serverCounters(ls, b.srv)
	default:
		return fmt.Errorf("unknown probe %q", kind)
	}
	return nil
}

// tracePath is where a traced run writes its spans.
func tracePath(workload string, seed int64) string {
	return filepath.Join(workDir, "trace", fmt.Sprintf("%s-%d.json", workload, seed))
}
