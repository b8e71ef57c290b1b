package main

// Per-operation measurement: wall-clock latency, process CPU time from
// getrusage, exact heap allocation counts from runtime.MemStats, and
// the machine's steal time from /proc/stat, which marks the windows
// the hypervisor took CPU time from.  Every reading is taken outside
// the timed window.

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// meter accumulates the measurements of one run.
type meter struct {
	wins      []win     // every timed window
	ops       int       // ops over every window
	allocB    uint64    // heap bytes allocated over the ops
	allocN    uint64    // heap objects allocated over the ops
	gcCycles  uint32    // GC cycles completed over the ops
	gcPauseNs uint64    // GC stop-the-world pause over the ops
	sim       []float64 // simulated layout time per checked answer, s
}

// win is the time measurements of one closed window.
type win struct {
	lat   []float64 // latency of each of the window's ops, ms
	cpu   float64   // process user+sys time, ms
	wall  float64   // s
	steal int64     // the machine's steal time over the window, ticks
}

// sums is the time measurements of a set of windows.
type sums struct {
	lat      []float64 // per-op latency, ms
	cpu      float64   // process user+sys time, ms
	timed    float64   // summed wall time of the windows, s
	ops      int
	maxSteal int64 // the most steal ticks any of the windows saw
}

// window is one timed window in progress.
type window struct {
	m     runtime.MemStats
	cpu   float64
	steal int64
	start time.Time
}

// stopwatch times the program's part of a set-up, which may be split
// over several intervals, and the machine's steal time during them.
type stopwatch struct {
	d      time.Duration
	steal  int64 // ticks
	t0     time.Time
	steal0 int64
}

func (s *stopwatch) start() {
	s.steal0 = stealTicks()
	s.t0 = time.Now()
}

func (s *stopwatch) stop() {
	s.d += time.Since(s.t0)
	s.steal += stealTicks() - s.steal0
}

// cpuMS is the process's user+sys time so far, in ms.
func cpuMS() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e6
}

// stealTicks reads the machine's cumulative steal time in clock ticks
// (USER_HZ, 100 per second) from /proc/stat, or -1 where it is absent.
func stealTicks() int64 {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return -1
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return -1
	}
	v, err := strconv.ParseInt(f[8], 10, 64)
	if err != nil {
		return -1
	}
	return v
}

// peakRSSMB is the process's peak resident set size, in MB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// open starts a timed window.  A forced collection first makes every
// window start from the same heap state, so one op's garbage is not
// collected on the next op's clock.
func (mt *meter) open() *window {
	runtime.GC()
	w := &window{}
	runtime.ReadMemStats(&w.m)
	w.steal = stealTicks()
	w.cpu = cpuMS()
	w.start = time.Now()
	return w
}

// close ends a timed window.  lats are the latencies of the window's
// ops; without them the window is one op, timed by the window itself.
func (mt *meter) close(w *window, lats ...time.Duration) {
	wall := time.Since(w.start)
	cpu := cpuMS()
	steal := stealTicks()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	if lats == nil {
		lats = []time.Duration{wall}
	}
	ms := make([]float64, len(lats))
	for i, d := range lats {
		ms[i] = float64(d) / 1e6
	}
	mt.wins = append(mt.wins, win{lat: ms, cpu: cpu - w.cpu, wall: wall.Seconds(), steal: steal - w.steal})
	mt.ops += len(ms)
	mt.allocB += m.TotalAlloc - w.m.TotalAlloc
	mt.allocN += m.Mallocs - w.m.Mallocs
	mt.gcCycles += m.NumGC - w.m.NumGC
	mt.gcPauseNs += m.PauseTotalNs - w.m.PauseTotalNs
}

// minTimedOps is how many ops the time metrics must cover.
const minTimedOps = 50

// timing sums the windows the time metrics come from: those that lost
// the least CPU time to the hypervisor.  A window during which the
// machine's steal time (CPU time the hypervisor gave to other guests)
// grew measures the host as much as the program.  timing takes the
// clean windows; if they hold fewer than minTimedOps ops, those that
// lost at most one tick, then two, and so on.
//
// On a shared 2-CPU guest the hypervisor took time from 30-90% of
// deep-cold's 80 ms windows for minutes at a time.  Over 25 s stretches
// of such a period the median of every window spread 0.07 and the p90
// 0.15, while over the clean ones both spread 0.03, as did the CPU time
// per op.  Each tick of steal (10 ms over both CPUs) added about 7 ms
// to a window.
func (mt *meter) timing() sums {
	var limit int64
	for {
		var s sums
		more := false
		for _, w := range mt.wins {
			if w.steal > limit {
				more = true
				continue
			}
			s.lat = append(s.lat, w.lat...)
			s.cpu += w.cpu
			s.timed += w.wall
			s.ops += len(w.lat)
			s.maxSteal = max(s.maxSteal, w.steal)
		}
		if s.ops >= minTimedOps || !more {
			return s
		}
		limit++
	}
}

// quantile is the linear-interpolation quantile q of sorted xs.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return sorted[lo] + (sorted[hi]-sorted[lo])*(pos-float64(lo))
}

// sortedCopy returns xs sorted ascending.
func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median of xs (NaN when empty).
func median(xs []float64) float64 { return quantile(sortedCopy(xs), 0.5) }

// mean of xs (0 when empty).
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// p90MinOps is the op count from which latency_ms_p90 is reported: ten
// samples beyond the 90th percentile.
const p90MinOps = 100

// endToEnd renders the run's end-to-end metrics.
func (mt *meter) endToEnd(setupS float64) map[string]metric {
	tm := mt.timing()
	ops, tops := float64(mt.ops), float64(tm.ops)
	out := map[string]metric{
		"latency_ms_p50":   {median(tm.lat), "ms"},
		"throughput_ops_s": {tops / tm.timed, "1/s"},
		"cpu_ms_per_op":    {tm.cpu / tops, "ms"},
		"alloc_mb_per_op":  {float64(mt.allocB) / 1e6 / ops, "MB"},
		"allocs_per_op":    {float64(mt.allocN) / ops, "count"},
		"peak_rss_mb":      {peakRSSMB(), "MB"},
		"setup_s":          {setupS, "s"},
		"layout_sim_s":     {mean(mt.sim), "s"},
	}
	if mt.ops >= p90MinOps {
		out["latency_ms_p90"] = metric{quantile(sortedCopy(tm.lat), 0.9), "ms"}
	}
	return out
}

// stolenLog describes, for the run's log, how many windows lost CPU
// time to the hypervisor and which the time metrics came from.
func (mt *meter) stolenLog() string {
	stolen := 0
	var all []float64
	for _, w := range mt.wins {
		if w.steal > 0 {
			stolen++
		}
		all = append(all, w.lat...)
	}
	tm := mt.timing()
	return fmt.Sprintf("%d of %d timed windows lost CPU time to the hypervisor; time metrics from the %d ops of windows that lost at most %d ticks (latency p50 %.2f ms, over every window %.2f ms)",
		stolen, len(mt.wins), tm.ops, tm.maxSteal, median(tm.lat), median(all))
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}
